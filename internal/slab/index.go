package slab

import (
	"hash/maphash"
	"iter"
)

// seed keys every Index's hash. It is made once per process and never
// shown, so a client cannot choose names that collide.
var seed = maphash.MakeSeed()

// minSlots is the size of an Index's first table.
const minSlots = 8

// Index finds records by the string key each record carries itself,
// which K reads. It is an open-addressed table of power-of-two size,
// probed linearly, whose slots hold a record's pointer beside the hash of
// its key; it grows by doubling before it is more than three quarters
// full, and re-inserts by the stored hash, so growing reads no key and
// hashes none again. Records are never removed, so an empty slot ends
// every probe and the table needs no tombstones. A record's key must not
// change while the index holds it.
//
// The zero value is ready to use. An Index is not safe for concurrent
// use, and must not be copied after the first Add.
type Index[T any, K Key[T]] struct {
	slots []indexSlot[T]
	n     int
}

// Key reads a record's key. It is a type, usually an empty struct, and
// not a func value in the Index, because a method of a type parameter
// costs a lookup a few nanoseconds less than a call through a func value.
type Key[T any] interface{ Key(*T) string }

type indexSlot[T any] struct {
	hash uint64
	p    *T // nil: the slot is empty
}

// Get returns the record whose key is k, or nil.
func (x *Index[T, K]) Get(k string) *T {
	if x.n == 0 {
		return nil
	}
	var key K
	h := maphash.String(seed, k)
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.p == nil {
			return nil
		}
		if s.hash == h && key.Key(s.p) == k {
			return s.p
		}
	}
}

// GetBytes is Get for a key held in a buffer; it copies nothing. It
// repeats Get's loop rather than share one generic over both key types,
// which costs every lookup a few nanoseconds more.
func (x *Index[T, K]) GetBytes(k []byte) *T {
	if x.n == 0 {
		return nil
	}
	var key K
	h := maphash.Bytes(seed, k)
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.p == nil {
			return nil
		}
		if s.hash == h && key.Key(s.p) == string(k) {
			return s.p
		}
	}
}

// Add files p under its key and reports true, or reports false and
// files nothing when a record with that key is filed already.
func (x *Index[T, K]) Add(p *T) bool {
	if len(x.slots) == 0 {
		x.grow()
	}
	var key K
	k := key.Key(p)
	h := maphash.String(seed, k)
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for ; x.slots[i].p != nil; i = (i + 1) & mask {
		if s := &x.slots[i]; s.hash == h && key.Key(s.p) == k {
			return false
		}
	}
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow()
		i = x.free(h)
	}
	x.slots[i] = indexSlot[T]{hash: h, p: p}
	x.n++
	return true
}

// free returns the first empty slot on hash h's probe sequence.
func (x *Index[T, K]) free(h uint64) uint64 {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i].p != nil {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table, placing every record by the hash its slot
// kept.
func (x *Index[T, K]) grow() {
	old := x.slots
	x.slots = make([]indexSlot[T], max(minSlots, 2*len(old)))
	for _, s := range old {
		if s.p != nil {
			x.slots[x.free(s.hash)] = s
		}
	}
}

// Len returns the number of records filed.
func (x *Index[T, K]) Len() int { return x.n }

// All yields every record once, in no particular order. The index must
// not change during the iteration.
func (x *Index[T, K]) All() iter.Seq[*T] {
	return func(yield func(*T) bool) {
		for _, s := range x.slots {
			if s.p != nil && !yield(s.p) {
				return
			}
		}
	}
}

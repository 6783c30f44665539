package snap

import (
	"hash/maphash"
	"iter"
	"sync/atomic"
)

// seed keys the index's hash. It is made once per process and never
// shown, so a client cannot choose names that collide.
var seed = maphash.MakeSeed()

// minSlots is the size of an index's first table: 1 KiB, which holds 48
// objects before it first grows. Every manager registers some objects,
// and a growth step costs a table and an atomic store per slot moved, so
// starting smaller would only add steps.
const minSlots = 64

// index finds objects by name: the store's one name index, which the
// lock manager reads too. It is an open-addressed table of power-of-two
// size, probed linearly, whose slots hold an object's pointer beside the
// hash of its name; it grows by doubling before it is more than three
// quarters full, and re-inserts by the stored hash, so growing reads no
// name and hashes none again. Objects are never removed, so an empty slot
// ends every probe and the table needs no tombstones.
//
// Writers (find, file) are serialised by the caller; readers (get,
// getBytes, all) take no lock. A slot's hash is written before its pointer is
// published, and a reader reads the hash only after it has loaded a
// non-nil pointer, so it never sees the one without the other. Growth
// fills a new table and then swaps it in whole: no object is ever
// removed, so a reader still probing the old table finds everything that
// table held, and an object filed after it loaded the table was filed
// after its lookup began.
//
// The zero value is ready to use.
type index struct {
	tab atomic.Pointer[table]
	n   int // objects filed; read and written by writers only
}

type table struct{ slots []slot }

type slot struct {
	hash uint64
	p    atomic.Pointer[Object] // nil: the slot is empty
}

// get returns the object named k, or nil.
func (x *index) get(k string) *Object {
	t := x.tab.Load()
	if t == nil {
		return nil
	}
	h := maphash.String(seed, k)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		p := s.p.Load()
		if p == nil {
			return nil
		}
		if s.hash == h && p.name == k {
			return p
		}
	}
}

// getBytes is get for a name held in a buffer; it copies nothing. It
// repeats get's loop rather than share one generic over both key types,
// which costs every lookup a few nanoseconds more.
func (x *index) getBytes(k []byte) *Object {
	t := x.tab.Load()
	if t == nil {
		return nil
	}
	h := maphash.Bytes(seed, k)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		p := s.p.Load()
		if p == nil {
			return nil
		}
		if s.hash == h && p.name == string(k) {
			return p
		}
	}
}

// find returns the object named k, or nil together with where to file
// one: the hash of k and the empty slot that ends its probe. Writers
// only, serialised by the caller.
func (x *index) find(k string) (o *Object, h, i uint64) {
	h = maphash.String(seed, k)
	t := x.tab.Load()
	if t == nil {
		return nil, h, 0
	}
	mask := uint64(len(t.slots) - 1)
	for i = h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		p := s.p.Load()
		if p == nil || s.hash == h && p.name == k {
			return p, h, i
		}
	}
}

// file files o at hash h and slot i, which find returned for o's name
// with nothing filed in between. Writers only.
func (x *index) file(o *Object, h, i uint64) {
	t := x.tab.Load()
	if t == nil || 4*(x.n+1) > 3*len(t.slots) {
		t = x.grow(t)
		i = t.free(h)
	}
	t.slots[i].hash = h
	t.slots[i].p.Store(o)
	x.n++
}

// free returns the first empty slot on hash h's probe sequence.
func (t *table) free(h uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].p.Load() != nil {
		i = (i + 1) & mask
	}
	return i
}

// grow fills a table of twice old's size (minSlots for none), placing
// every object by the hash its slot kept, and swaps it in.
func (x *index) grow(old *table) *table {
	n := minSlots
	if old != nil {
		n = 2 * len(old.slots)
	}
	t := &table{slots: make([]slot, n)}
	if old != nil {
		for i := range old.slots {
			s := &old.slots[i]
			if p := s.p.Load(); p != nil {
				d := &t.slots[t.free(s.hash)]
				d.hash = s.hash
				d.p.Store(p)
			}
		}
	}
	x.tab.Store(t)
	return t
}

// all yields every object filed before the call once, and perhaps some
// filed during it, in no particular order.
func (x *index) all() iter.Seq[*Object] {
	return func(yield func(*Object) bool) {
		t := x.tab.Load()
		if t == nil {
			return
		}
		for i := range t.slots {
			if p := t.slots[i].p.Load(); p != nil && !yield(p) {
				return
			}
		}
	}
}

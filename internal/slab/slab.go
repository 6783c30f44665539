// Package slab cuts small values from shared chunks, so that values made
// and dropped at a high rate cost one allocation per chunk instead of one
// each. It imports nothing of this module.
package slab

// ChunkBytes is the most a chunk may take and still fit the allocator's
// 2,048-byte size class: the class less the 8-byte header Go puts before
// an object of over 512 bytes that holds pointers. A chunk of
// ChunkBytes/unsafe.Sizeof(T) values fills the class to within one value.
const ChunkBytes = 2048 - 8

// Slab is the unused rest of the chunk values are cut from. The zero
// value is ready to use. A Slab is not safe for concurrent use; the
// values it hands out are independent and may go to any goroutine.
type Slab[T any] struct {
	rest []T
}

// New returns a zero T: the next slot of the current chunk, or the first
// of a new chunk of n when the current one is used up. A slot is handed
// out once and never reused, so a value keeps its address for life, and
// a chunk stays allocated while any of its slots is reachable.
func (s *Slab[T]) New(n int) *T {
	if len(s.rest) == 0 {
		s.rest = make([]T, n)
	}
	p := &s.rest[0]
	s.rest = s.rest[1:]
	return p
}

package slab

import (
	"runtime"
	"testing"
	"unsafe"
)

// handle stands for the values the runtime cuts from slabs: it holds
// pointers, so a chunk of over 512 B carries a malloc header. At 128 B
// the header decides: sixteen values are 2,048 B and spill with it.
type handle struct {
	p    *handle
	name [120]byte
}

var sink []handle

// TestNewHandsOutEverySlotOnce: New gives each slot of a chunk once, in
// order and zeroed, makes a new chunk only when the last is used up, and
// costs one allocation per chunk.
func TestNewHandsOutEverySlotOnce(t *testing.T) {
	const n = 3
	var s Slab[handle]
	seen := make(map[*handle]bool)
	var prev *handle
	for i := range 4 * n {
		p := s.New(n)
		if seen[p] {
			t.Fatalf("slot %d handed out twice", i)
		}
		seen[p] = true
		if *p != (handle{}) {
			t.Fatalf("slot %d is not zero", i)
		}
		if i%n != 0 && uintptr(unsafe.Pointer(p)) != uintptr(unsafe.Pointer(prev))+unsafe.Sizeof(handle{}) {
			t.Fatalf("slot %d does not follow slot %d in its chunk", i, i-1)
		}
		p.p = p // a slot, once handed out, is its owner's to write
		prev = p
	}
	allocs := testing.AllocsPerRun(100, func() {
		for range n {
			s.New(n)
		}
	})
	if allocs != 1 {
		t.Errorf("%d values from chunks of %d cost %.0f allocations, want 1", n, n, allocs)
	}
}

// TestChunkFillsItsSizeClass: a chunk of ChunkBytes/size values lands in
// the 2,048-byte size class, header included, and one value more would
// not; so ChunkBytes is the right budget, and the largest count under it
// wastes less than one value.
func TestChunkFillsItsSizeClass(t *testing.T) {
	size := int(unsafe.Sizeof(handle{}))
	n := ChunkBytes / size
	if waste := 2048 - n*size; waste >= size+8 {
		t.Errorf("a chunk of %d leaves %d B of its class unused, more than one %d B value", n, waste, size)
	}
	bytesPer := func(n int) uint64 {
		const chunks = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range chunks {
			sink = make([]handle, n)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / chunks
	}
	if b := bytesPer(n); b < 2048 || b >= 2304 {
		t.Errorf("a chunk of %d %d-byte values costs %d B, want the 2,048-byte class", n, size, b)
	}
	if b := bytesPer(n + 1); b < 2304 {
		t.Errorf("a chunk of %d %d-byte values costs %d B: ChunkBytes leaves room for more", n+1, size, b)
	}
}

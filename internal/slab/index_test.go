package slab

import (
	"fmt"
	"testing"
)

// record stands for the values the runtime files in an Index: a record
// that carries its own key.
type record struct {
	name string
	v    int
}

type byName struct{}

func (byName) Key(r *record) string { return r.name }

func newIndex() Index[record, byName] { return Index[record, byName]{} }

// TestIndexRefusesADuplicate: Add refuses a second record under a key
// already filed, and the first record stays the one found.
func TestIndexRefusesADuplicate(t *testing.T) {
	x := newIndex()
	first := &record{name: "x", v: 1}
	if !x.Add(first) {
		t.Fatal("the first record under x was refused")
	}
	if x.Add(&record{name: "x", v: 2}) {
		t.Fatal("a second record under x was filed")
	}
	if got := x.Get("x"); got != first {
		t.Fatalf("Get(x) = %+v, want the first record", got)
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d after a refused duplicate, want 1", x.Len())
	}
}

// TestIndexFindsEveryRecordAcrossGrowth: after each Add, every record
// filed so far is found, by Get and by GetBytes, and a key never filed
// is not — across every doubling up to 4,096 records, each of which
// moves records by their stored hash alone.
func TestIndexFindsEveryRecordAcrossGrowth(t *testing.T) {
	const n = 4096
	x := newIndex()
	recs := make([]record, n)
	for i := range recs {
		recs[i].name = fmt.Sprintf("obj%d", i)
		recs[i].v = i
	}
	grew := 0
	for i := range recs {
		size := len(x.slots)
		if !x.Add(&recs[i]) {
			t.Fatalf("record %d refused", i)
		}
		if len(x.slots) == size {
			continue
		}
		grew++
		if 4*x.n > 3*len(x.slots) {
			t.Fatalf("after growing to %d slots the index holds %d records, over three quarters", len(x.slots), x.n)
		}
		for j := 0; j <= i; j++ {
			if got := x.Get(recs[j].name); got != &recs[j] {
				t.Fatalf("after growing to %d slots at record %d, Get(%s) = %v", len(x.slots), i, recs[j].name, got)
			}
			if got := x.GetBytes([]byte(recs[j].name)); got != &recs[j] {
				t.Fatalf("after growing to %d slots at record %d, GetBytes(%s) = %v", len(x.slots), i, recs[j].name, got)
			}
		}
		if x.Get("never") != nil || x.GetBytes([]byte("never")) != nil {
			t.Fatal("a key never filed was found")
		}
	}
	if x.Len() != n || grew != 11 {
		t.Fatalf("Len = %d after %d adds, grown %d times; want %d and 11", x.Len(), n, grew, n)
	}
}

// TestIndexAllVisitsEachRecordOnce: All yields every filed record once,
// and stops when the caller does.
func TestIndexAllVisitsEachRecordOnce(t *testing.T) {
	x := newIndex()
	recs := make([]record, 100)
	for i := range recs {
		recs[i].name = fmt.Sprint(i)
		x.Add(&recs[i])
	}
	seen := make(map[*record]int)
	for r := range x.All() {
		seen[r]++
	}
	for i := range recs {
		if seen[&recs[i]] != 1 {
			t.Fatalf("All yielded record %d %d times", i, seen[&recs[i]])
		}
	}
	if len(seen) != len(recs) {
		t.Fatalf("All yielded %d records, want %d", len(seen), len(recs))
	}
	n := 0
	for range x.All() {
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("All went on after a break: %d records", n)
	}
}

// TestIndexLookupsAllocateNothing: Get and GetBytes, found or not, make
// no allocation; GetBytes does not copy its key to a string.
func TestIndexLookupsAllocateNothing(t *testing.T) {
	x := newIndex()
	recs := make([]record, 1000)
	for i := range recs {
		recs[i].name = fmt.Sprintf("c%05d", i)
		x.Add(&recs[i])
	}
	hit, miss := []byte("c00500"), []byte("d00500")
	allocs := testing.AllocsPerRun(1000, func() {
		if x.Get("c00500") == nil || x.Get("d00500") != nil {
			t.Fatal("wrong answer")
		}
		if x.GetBytes(hit) == nil || x.GetBytes(miss) != nil {
			t.Fatal("wrong answer")
		}
	})
	if allocs != 0 {
		t.Errorf("four lookups cost %.0f allocations, want 0", allocs)
	}
}

// FuzzIndexMatchesMap: a random sequence of adds and lookups answers as
// a Go map keyed by the same names does. Each input byte pair is one
// step: the first byte picks add or look up, the second the key, from a
// small alphabet so duplicates and misses are common.
func FuzzIndexMatchesMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 1, 1, 2})
	f.Add([]byte("add every key then look each up: abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Fuzz(func(t *testing.T, script []byte) {
		x := newIndex()
		ref := make(map[string]*record)
		for i := 0; i+1 < len(script); i += 2 {
			k := fmt.Sprintf("k%d", script[i+1]%97)
			if script[i]%2 == 0 {
				r := &record{name: k, v: i}
				_, dup := ref[k]
				if x.Add(r) == dup {
					t.Fatalf("step %d: Add(%s) = %v with the key filed: %v", i/2, k, !dup, dup)
				}
				if !dup {
					ref[k] = r
				}
			}
			if got, want := x.Get(k), ref[k]; got != want {
				t.Fatalf("step %d: Get(%s) = %v, want %v", i/2, k, got, want)
			}
			if got, want := x.GetBytes([]byte(k)), ref[k]; got != want {
				t.Fatalf("step %d: GetBytes(%s) = %v, want %v", i/2, k, got, want)
			}
		}
		if x.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", x.Len(), len(ref))
		}
		n := 0
		for r := range x.All() {
			if ref[r.name] != r {
				t.Fatalf("All yielded %+v, not the record filed under %s", r, r.name)
			}
			n++
		}
		if n != len(ref) {
			t.Fatalf("All yielded %d records, want %d", n, len(ref))
		}
	})
}

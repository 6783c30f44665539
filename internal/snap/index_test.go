package snap

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"
)

// add files o under its name, as File does, and reports true, or reports
// false and files nothing when an object of that name is filed already.
func (x *index) add(o *Object) bool {
	dup, h, i := x.find(o.name)
	if dup != nil {
		return false
	}
	x.file(o, h, i)
	return true
}

// TestIndexRefusesADuplicate: add refuses a second object under a name
// already filed, and the first object stays the one found.
func TestIndexRefusesADuplicate(t *testing.T) {
	var x index
	first := &Object{name: "x"}
	if !x.add(first) {
		t.Fatal("the first object named x was refused")
	}
	if x.add(&Object{name: "x"}) {
		t.Fatal("a second object named x was filed")
	}
	if got := x.get("x"); got != first {
		t.Fatalf("get(x) = %p, want the first object %p", got, first)
	}
	if x.n != 1 {
		t.Fatalf("%d objects filed after a refused duplicate, want 1", x.n)
	}
}

// TestIndexFindsEveryRecordAcrossGrowth: after each add, every object
// filed so far is found, by get and by getBytes, and a name never filed
// is not — across every doubling up to 4,096 objects, each of which
// moves objects by their stored hash alone. The last table has 8,192
// slots.
func TestIndexFindsEveryRecordAcrossGrowth(t *testing.T) {
	const n = 4096
	var x index
	objs := make([]Object, n)
	for i := range objs {
		objs[i].name = fmt.Sprintf("obj%d", i)
	}
	grew := 0
	size := 0
	for i := range objs {
		if !x.add(&objs[i]) {
			t.Fatalf("object %d refused", i)
		}
		if len(x.tab.Load().slots) == size {
			continue
		}
		size = len(x.tab.Load().slots)
		grew++
		if 4*x.n > 3*size {
			t.Fatalf("after growing to %d slots the index holds %d objects, over three quarters", size, x.n)
		}
		for j := 0; j <= i; j++ {
			if got := x.get(objs[j].name); got != &objs[j] {
				t.Fatalf("after growing to %d slots at object %d, get(%s) = %p", size, i, objs[j].name, got)
			}
			if got := x.getBytes([]byte(objs[j].name)); got != &objs[j] {
				t.Fatalf("after growing to %d slots at object %d, getBytes(%s) = %p", size, i, objs[j].name, got)
			}
		}
		if x.get("never") != nil || x.getBytes([]byte("never")) != nil {
			t.Fatal("a name never filed was found")
		}
	}
	if tables := bits.Len(8192 / minSlots); x.n != n || grew != tables {
		t.Fatalf("%d objects filed after %d adds, made %d tables; want %d and %d", x.n, n, grew, n, tables)
	}
}

// TestIndexReadsBesideAWriter: readers take no lock and share nothing
// with the writer but the index. A slot's hash is written before its
// pointer is published and a grown table is filled before it is swapped
// in, so under -race no reader reads a hash or a slot its load of the
// pointer does not order after the write, and every lookup answers nil
// or the object filed under the name it asked for.
func TestIndexReadsBesideAWriter(t *testing.T) {
	const n = 5000
	var x index
	objs := make([]Object, n)
	for i := range objs {
		objs[i].name = fmt.Sprintf("w%04d", i)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			absent := []byte("absent")
			for i := r; ; i += 7 {
				select {
				case <-done:
					return
				default:
				}
				want := &objs[i%n]
				if o := x.get(want.name); o != nil && o != want {
					t.Errorf("get(%s) found the object filed under %s", want.name, o.name)
					return
				}
				if x.getBytes(absent) != nil {
					t.Error("a name never filed was found")
					return
				}
			}
		}()
	}
	for i := range objs {
		x.add(&objs[i])
	}
	close(done)
	wg.Wait()
	for i := range objs {
		if x.get(objs[i].name) != &objs[i] {
			t.Fatalf("%s is not found once the writer is done", objs[i].name)
		}
	}
}

// TestIndexAllVisitsEachRecordOnce: all yields every filed object once,
// and stops when the caller does.
func TestIndexAllVisitsEachRecordOnce(t *testing.T) {
	var x index
	objs := make([]Object, 100)
	for i := range objs {
		objs[i].name = fmt.Sprint(i)
		x.add(&objs[i])
	}
	seen := make(map[*Object]int)
	for o := range x.all() {
		seen[o]++
	}
	for i := range objs {
		if seen[&objs[i]] != 1 {
			t.Fatalf("all yielded object %d %d times", i, seen[&objs[i]])
		}
	}
	if len(seen) != len(objs) {
		t.Fatalf("all yielded %d objects, want %d", len(seen), len(objs))
	}
	n := 0
	for range x.all() {
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("all went on after a break: %d objects", n)
	}
}

// TestIndexLookupsAllocateNothing: get and getBytes, found or not, make
// no allocation; getBytes does not copy its name to a string.
func TestIndexLookupsAllocateNothing(t *testing.T) {
	var x index
	objs := make([]Object, 1000)
	for i := range objs {
		objs[i].name = fmt.Sprintf("c%05d", i)
		x.add(&objs[i])
	}
	hit, miss := []byte("c00500"), []byte("d00500")
	allocs := testing.AllocsPerRun(1000, func() {
		if x.get("c00500") == nil || x.get("d00500") != nil {
			t.Fatal("wrong answer")
		}
		if x.getBytes(hit) == nil || x.getBytes(miss) != nil {
			t.Fatal("wrong answer")
		}
	})
	if allocs != 0 {
		t.Errorf("four lookups cost %.0f allocations, want 0", allocs)
	}
}

// FuzzIndexMatchesMap: a random sequence of adds and lookups answers as
// a Go map keyed by the same names does. Each input byte pair is one
// step: the first byte picks add or look up, the second the name, from a
// small alphabet so duplicates and misses are common.
func FuzzIndexMatchesMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 1, 1, 2})
	f.Add([]byte("add every key then look each up: abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Fuzz(func(t *testing.T, script []byte) {
		var x index
		ref := make(map[string]*Object)
		for i := 0; i+1 < len(script); i += 2 {
			k := fmt.Sprintf("k%d", script[i+1]%97)
			if script[i]%2 == 0 {
				o := &Object{name: k}
				_, dup := ref[k]
				if x.add(o) == dup {
					t.Fatalf("step %d: add(%s) = %v with the name filed: %v", i/2, k, !dup, dup)
				}
				if !dup {
					ref[k] = o
				}
			}
			if got, want := x.get(k), ref[k]; got != want {
				t.Fatalf("step %d: get(%s) = %p, want %p", i/2, k, got, want)
			}
			if got, want := x.getBytes([]byte(k)), ref[k]; got != want {
				t.Fatalf("step %d: getBytes(%s) = %p, want %p", i/2, k, got, want)
			}
		}
		if x.n != len(ref) {
			t.Fatalf("%d objects filed, want %d", x.n, len(ref))
		}
		n := 0
		for o := range x.all() {
			if ref[o.name] != o {
				t.Fatalf("all yielded %p, not the object filed under %s", o, o.name)
			}
			n++
		}
		if n != len(ref) {
			t.Fatalf("all yielded %d objects, want %d", n, len(ref))
		}
	})
}

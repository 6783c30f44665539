package nestedtx

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nestedtx/internal/adt"
	"nestedtx/internal/tree"
)

// BenchmarkLookupUniverse times the three paths that find an object by
// name, at embed_hot_rw's 64 objects and embed_nested's 65,536: a flat
// read through the lock manager (Acquire of a counter read and the
// top-level Commit that drops its lock), ObjectName (a server's decode of
// a request's object name) and a read through a pinned snapshot. Objects
// are visited in a fixed random order, so at 65,536 consecutive lookups
// touch unrelated index slots and records.
func BenchmarkLookupUniverse(b *testing.B) {
	for _, n := range []int{64, 1 << 16} {
		m := NewManager()
		names := make([]string, n)
		bufs := make([][]byte, n)
		for i := range names {
			names[i] = fmt.Sprintf("obj%d", i)
			bufs[i] = []byte(names[i])
			m.MustRegister(names[i], Counter{})
		}
		order := rand.New(rand.NewSource(1)).Perm(n)
		b.Run(fmt.Sprintf("objects=%d/acquire-commit", n), func(b *testing.B) {
			top := tree.Root.Child(0)
			for i := 0; i < b.N; i++ {
				if _, err := m.lm.Acquire(top, "", names[order[i%n]], adt.CtrGet{}, nil); err != nil {
					b.Fatal(err)
				}
				m.lm.Commit(top, nil)
			}
		})
		b.Run(fmt.Sprintf("objects=%d/object-name", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := m.ObjectName(bufs[order[i%n]]); !ok {
					b.Fatal("a registered name was not found")
				}
			}
		})
		b.Run(fmt.Sprintf("objects=%d/pinned-read", n), func(b *testing.B) {
			pin := m.snap.Acquire()
			defer pin.Release()
			for i := 0; i < b.N; i++ {
				if _, err := pin.Read(names[order[i%n]]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLookupsDuringRegistration: lookups by name take no lock, so they
// run while a registration fills the index and swaps in a grown table.
// One goroutine registers 10,000 objects, growing the index eight
// times; three others follow it, and each finds every object as soon as
// its registration has returned — by a read through the lock manager, by
// ObjectName and by a read through a pin taken after the registration.
func TestLookupsDuringRegistration(t *testing.T) {
	const objects = 10_000
	m := NewManager()
	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprintf("r%05d", i)
	}
	var registered atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, x := range names {
			if err := m.Register(x, Counter{N: int64(i)}); err != nil {
				t.Error(err)
				return
			}
			registered.Store(int64(i + 1))
		}
	}()
	// follow calls look on every object in registration order, each once
	// its Register has returned.
	follow := func(look func(i int) error) {
		defer wg.Done()
		for i := range names {
			for registered.Load() <= int64(i) {
				if t.Failed() {
					return
				}
				runtime.Gosched()
			}
			if err := look(i); err != nil {
				t.Errorf("%s, registered before the lookup: %v", names[i], err)
				return
			}
		}
	}
	wg.Add(3)
	top := tree.Root.Child(0)
	go follow(func(i int) error {
		v, err := m.lm.Acquire(top, "", names[i], adt.CtrGet{}, nil)
		if err != nil {
			return err
		}
		m.lm.Commit(top, nil)
		if v != int64(i) {
			return fmt.Errorf("read %v through the lock manager, want %d", v, i)
		}
		return nil
	})
	go follow(func(i int) error {
		if x, ok := m.ObjectName([]byte(names[i])); !ok || x != names[i] {
			return fmt.Errorf("ObjectName = %q, %v", x, ok)
		}
		return nil
	})
	go follow(func(i int) error {
		pin := m.snap.Acquire()
		defer pin.Release()
		st, err := pin.Read(names[i])
		if err != nil {
			return err
		}
		if st != (Counter{N: int64(i)}) {
			return fmt.Errorf("read %v through a pin, want %d", st, i)
		}
		return nil
	})
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

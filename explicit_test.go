package nestedtx

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"nestedtx/internal/event"
)

// TestExplicitLifecycle drives the explicit form — Begin, Commit, Abort,
// Cancel — through its legal and illegal sequences. Every row records its
// schedule and ends in Verify and CheckInvariants: misuse is refused or
// resolved into an abort, never into an ill-formed history.
func TestExplicitLifecycle(t *testing.T) {
	add := func(t *testing.T, tx *Tx, n int64) {
		t.Helper()
		if _, err := tx.Do("ctr", CtrAdd{Delta: n}); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []struct {
		name string
		run  func(t *testing.T, m *Manager)
		want int64 // committed value of ctr afterwards
	}{
		{"begin sub abort-sub commit", func(t *testing.T, m *Manager) {
			tx := m.Begin()
			add(t, tx, 1)
			sub, err := tx.Begin()
			if err != nil {
				t.Fatal(err)
			}
			add(t, sub, 100)
			sub.Abort()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"sub commits to parent", func(t *testing.T, m *Manager) {
			tx := m.Begin()
			sub, _ := tx.Begin()
			add(t, sub, 5)
			if err := sub.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}, 5},
		{"commit with a child open is refused and leaves both open", func(t *testing.T, m *Manager) {
			tx := m.Begin()
			sub, _ := tx.Begin()
			add(t, sub, 2)
			err := tx.Commit()
			if err == nil || !strings.Contains(err.Error(), string(sub.id)) {
				t.Fatalf("Commit over open %s: %v, want an error naming it", sub.id, err)
			}
			add(t, sub, 2) // both still usable
			if err := sub.Commit(); err != nil {
				t.Fatal(err)
			}
			add(t, tx, 1)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}, 5},
		{"commit of a cancelled transaction aborts it", func(t *testing.T, m *Manager) {
			tx := m.Begin()
			add(t, tx, 7)
			tx.Cancel()
			if _, err := tx.Do("ctr", CtrGet{}); !errors.Is(err, ErrAborted) {
				t.Fatalf("Do after Cancel: %v, want ErrAborted", err)
			}
			if err := tx.Commit(); !errors.Is(err, ErrAborted) {
				t.Fatalf("Commit after Cancel: %v, want ErrAborted", err)
			}
			if err := tx.Commit(); !errors.Is(err, ErrDone) {
				t.Fatalf("second Commit: %v, want ErrDone", err)
			}
		}, 0},
		{"use after commit", func(t *testing.T, m *Manager) {
			tx := m.Begin()
			add(t, tx, 3)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Begin(); !errors.Is(err, ErrDone) {
				t.Fatalf("Begin after Commit: %v, want ErrDone", err)
			}
			if _, err := tx.Do("ctr", CtrGet{}); !errors.Is(err, ErrDone) {
				t.Fatalf("Do after Commit: %v, want ErrDone", err)
			}
			if err := tx.Commit(); !errors.Is(err, ErrDone) {
				t.Fatalf("second Commit: %v, want ErrDone", err)
			}
			tx.Abort() // no-op: the commit stands
		}, 3},
		{"use after abort", func(t *testing.T, m *Manager) {
			tx := m.Begin()
			add(t, tx, 3)
			tx.Abort()
			tx.Abort()
			if _, err := tx.Begin(); !errors.Is(err, ErrDone) {
				t.Fatalf("Begin after Abort: %v, want ErrDone", err)
			}
			if err := tx.Commit(); !errors.Is(err, ErrDone) {
				t.Fatalf("Commit after Abort: %v, want ErrDone", err)
			}
		}, 0},
		{"abort unwinds open descendants innermost first", func(t *testing.T, m *Manager) {
			tx := m.Begin()
			sub, _ := tx.Begin()
			leaf, _ := sub.Begin()
			add(t, leaf, 9)
			tx.Abort()
			if err := leaf.Commit(); !errors.Is(err, ErrDone) {
				t.Fatalf("leaf after root Abort: %v, want ErrDone", err)
			}
			var order []string
			for _, e := range m.Schedule() {
				if e.Kind == event.Abort {
					order = append(order, string(e.T))
				}
			}
			if got := strings.Join(order, " "); got != "T0.0.0.0 T0.0.0 T0.0" {
				t.Fatalf("abort order %q, want leaf, sub, root", got)
			}
		}, 0},
		{"cancel reaches an open child, siblings are untouched", func(t *testing.T, m *Manager) {
			tx := m.Begin()
			doomed, _ := tx.Begin()
			add(t, doomed, 50)
			doomed.Cancel()
			if err := doomed.Commit(); !errors.Is(err, ErrAborted) {
				t.Fatalf("Commit of cancelled child: %v, want ErrAborted", err)
			}
			if err := tx.Sub(func(c *Tx) error { _, err := c.Do("ctr", CtrAdd{Delta: 4}); return err }); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}, 4},
	} {
		t.Run(row.name, func(t *testing.T) {
			m := NewManager(WithRecording())
			m.MustRegister("ctr", Counter{})
			row.run(t, m)
			if s, _ := m.State("ctr"); s.(Counter).N != row.want {
				t.Errorf("ctr = %v, want %d", s, row.want)
			}
			if err := m.Verify(); err != nil {
				t.Error(err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestFinishedChildrenAreUnlinked: a returned subtransaction leaves its
// parent's books, so one long transaction looping over Sub (or one remote
// session looping SUB/COMMIT) holds no dead *Tx: the child list is empty
// and the live heap flat however many have come and gone.
func TestFinishedChildrenAreUnlinked(t *testing.T) {
	m := NewManager()
	m.MustRegister("ctr", Counter{})
	heapAfter := func(tx *Tx, n int) uint64 {
		for i := 0; i < n; i++ {
			if err := tx.Sub(func(c *Tx) error { _, err := c.Do("ctr", CtrAdd{Delta: 1}); return err }); err != nil {
				t.Fatal(err)
			}
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	tx := m.Begin()
	first := heapAfter(tx, 1_000)
	last := heapAfter(tx, 99_000)
	for i := 0; i < 100; i++ {
		if err := tx.Go(func(*Tx) error { return nil }).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if s := tx.state(); s.children != nil || s.handles != nil {
		t.Errorf("after 100k returned subtransactions: child %v, handle %v still linked", s.children, s.handles)
	}
	// 99,000 dead children at 160 B apiece would be some 16 MB.
	if last > first+1<<20 {
		t.Errorf("live heap grew from %d B after 1k Subs to %d B after 100k", first, last)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s, _ := m.State("ctr"); s.(Counter).N != 100_000 {
		t.Errorf("ctr = %v, want 100000", s)
	}
}

package nestedtx

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"nestedtx/internal/wal"
)

// probeOf returns a read-only operation on a state of st's type.
func probeOf(t *testing.T, st State) Op {
	t.Helper()
	switch st.(type) {
	case Register:
		return RegRead{}
	case Counter:
		return CtrGet{}
	case Account:
		return AcctBalance{}
	case IntSet:
		return SetSize{}
	case Table:
		return TblGet{K: "k0"}
	case Queue:
		return QLen{}
	}
	t.Fatalf("no probe for %T", st)
	return nil
}

// wantReadSidesAgree: with nothing in flight, the store's two read paths
// — State (its latest settled version) and a read-only transaction's
// pinned read — answer alike for every object. It returns the states
// State read.
func wantReadSidesAgree(t *testing.T, m *Manager) map[string]State {
	t.Helper()
	head := make(map[string]State)
	for o := range m.snap.Objects() {
		st, err := m.State(o.Name())
		if err != nil {
			t.Fatal(err)
		}
		head[o.Name()] = st
	}
	if err := m.RunReadOnly(func(s *Snapshot) error {
		for x, want := range head {
			op := probeOf(t, want)
			_, wantV := op.Apply(want)
			if v, err := s.Read(x, op); err != nil || v != wantV {
				t.Errorf("read-only %v on %s = %v, %v; State's version yields %v", op, x, v, err, wantV)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return head
}

// TestReadSidesAgreeAtRest drives nested commits, voluntary aborts,
// read-only accesses and a deadlock victim through a durable manager,
// then checks the store's two read paths against each other at rest — and
// again on the manager recovery builds from the log, which must also
// equal what the first one held.
func TestReadSidesAgreeAtRest(t *testing.T) {
	for name, opts := range map[string][]Option{
		"read-write": nil,
		"exclusive":  {WithExclusiveLocking()},
	} {
		t.Run(name, func(t *testing.T) {
			fs := wal.NewMemFS()
			m, _, err := OpenDurable("d", DurableOptions{FS: fs}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			m.MustRegister("reg", NewRegister(int64(0)))
			m.MustRegister("ctr", Counter{})
			m.MustRegister("acct", Account{Balance: 1000})
			m.MustRegister("set", NewIntSet())
			m.MustRegister("tbl", NewTable(nil))
			m.MustRegister("q", NewQueue())
			m.MustRegister("r1", NewRegister(int64(0)))
			m.MustRegister("r2", NewRegister(int64(0)))

			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for n := 0; n < 25; n++ {
						err := m.RunRetry(40, func(tx *Tx) error { return soakBody(tx, rng.Int63(), 2) })
						if err != nil && !errors.Is(err, ErrDeadlock) && !errors.Is(err, errSoakAbort) {
							t.Errorf("unexpected error: %v", err)
						}
					}
				}(int64(w) + 1)
			}
			wg.Wait()
			if victims := runCycle(t, m, [][2]string{{"r1", "r2"}, {"r2", "r1"}}); victims != 1 {
				t.Fatalf("forced cycle chose %d victims, want 1", victims)
			}
			if m.Stats().CommitMoves == 0 {
				t.Fatal("workload committed nothing")
			}
			before := wantReadSidesAgree(t, m)
			if err := m.CloseWAL(); err != nil {
				t.Fatal(err)
			}

			m2, _, err := OpenDurable("d", DurableOptions{FS: fs}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.CloseWAL()
			if after := wantReadSidesAgree(t, m2); !reflect.DeepEqual(after, before) {
				t.Fatalf("recovered states %v, want %v", after, before)
			}
		})
	}
}

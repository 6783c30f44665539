package lockmgr

import (
	"slices"
	"testing"

	"nestedtx/internal/adt"
	"nestedtx/internal/core"
	"nestedtx/internal/tree"
)

// A script is a short sequence of lock-manager steps over a fixed tree of
// transaction names and three counters, run in lockstep with M(X). The
// table test writes scripts out by name; the fuzz target decodes them from
// bytes: the first byte picks the mode, every following pair is one step —
// the low two bits of the first the operation, the next two the object,
// the second byte the transaction.
type scriptOp byte

const (
	opRead scriptOp = iota
	opWrite
	opCommit
	opAbort
)

type scriptStep struct {
	op  scriptOp
	tx  tree.TID
	obj int // accesses only
}

var scriptObjects = []string{"x0", "x1", "x2"}

// scriptTxs are the transactions a script may name: three top-level ones,
// two children under each, two grandchildren under each child. Accesses
// take child numbers from 2 up, so they never collide.
var scriptTxs = func() []tree.TID {
	var out []tree.TID
	for i := 0; i < 3; i++ {
		top := tree.Root.Child(i)
		out = append(out, top)
		for j := 0; j < 2; j++ {
			mid := top.Child(j)
			out = append(out, mid, mid.Child(0), mid.Child(1))
		}
	}
	return out
}()

func decodeScript(data []byte) (core.Mode, []scriptStep) {
	if len(data) == 0 {
		return core.ReadWrite, nil
	}
	mode := core.ReadWrite
	if data[0]&1 == 1 {
		mode = core.Exclusive
	}
	var steps []scriptStep
	for rest := data[1:]; len(rest) >= 2; rest = rest[2:] {
		steps = append(steps, scriptStep{
			op:  scriptOp(rest[0] & 3),
			obj: int(rest[0]>>2&3) % len(scriptObjects),
			tx:  scriptTxs[int(rest[1])%len(scriptTxs)],
		})
	}
	return mode, steps
}

func encodeScript(mode core.Mode, steps []scriptStep) []byte {
	out := []byte{byte(mode)}
	for _, s := range steps {
		i := slices.Index(scriptTxs, s.tx)
		if i < 0 {
			panic("script names " + string(s.tx) + ", which is not in scriptTxs")
		}
		out = append(out, byte(s.op)|byte(s.obj)<<2, byte(i))
	}
	return out
}

// runScript plays steps on a fresh manager beside M(X), checking the
// refinement after each. A step the protocol does not allow — a
// transaction that has returned or whose ancestor has, a commit with
// children still running, an access M(X) does not enable — is skipped.
func runScript(tb testing.TB, mode core.Mode, steps []scriptStep) *lockstep {
	tb.Helper()
	l := newLockstep(tb, mode, 2, scriptObjects...)
	running := tree.NewSet()  // accessed, or has a descendant that did, and not returned
	returned := tree.NewSet() // committed or aborted
	accesses := map[tree.TID]int{}
	must := func(i int, err error) {
		tb.Helper()
		if err != nil {
			tb.Fatalf("step %d (%+v): %v", i, steps[i], err)
		}
	}
	for i, s := range steps {
		if slices.ContainsFunc(s.tx.Ancestors(), returned.Has) {
			continue
		}
		switch s.op {
		case opRead, opWrite:
			var op adt.Op = adt.CtrGet{}
			if s.op == opWrite {
				op = adt.CtrAdd{Delta: 1}
			}
			access := s.tx.Child(2 + accesses[s.tx])
			accesses[s.tx]++
			_, err := l.access(s.tx, access, scriptObjects[s.obj], op)
			must(i, err)
			for _, u := range s.tx.Ancestors()[1:] {
				running.Add(u)
			}
		case opCommit:
			childRunning := false
			for u := range running {
				childRunning = childRunning || s.tx.IsProperAncestorOf(u)
			}
			if childRunning {
				continue
			}
			must(i, l.commit(s.tx))
			running.Remove(s.tx)
			returned.Add(s.tx)
		case opAbort:
			must(i, l.abort(s.tx))
			running.RemoveDescendantsOf(s.tx)
			returned.Add(s.tx)
		}
		must(i, l.check())
	}
	return l
}

// windDown aborts every top-level transaction (a no-op for one that has
// returned) and checks that nothing per transaction is left.
func (l *lockstep) windDown(tb testing.TB) {
	tb.Helper()
	for i := 0; i < 3; i++ {
		if err := l.abort(tree.Root.Child(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.check(); err != nil {
		tb.Fatal(err)
	}
	if err := l.checkAtRest(); err != nil {
		tb.Fatal(err)
	}
}

// chainEdges are the transitions of the chain that have a choice in them:
// fold or rename on commit, where to cut on abort, what dirty follows.
var chainEdges = []struct {
	name  string
	mode  core.Mode
	steps []scriptStep
	// x0's lock tables once the steps have run, and its latest version
	// in the store (nil: the initial zero counter).
	chain     []writeHolder
	read      []tree.TID
	committed adt.State
}{{
	name: "commit into a parent that already holds folds",
	steps: []scriptStep{
		{op: opWrite, tx: "T0.0"},
		{op: opWrite, tx: "T0.0.0"},
		{op: opCommit, tx: "T0.0.0"},
	},
	chain: []writeHolder{{t: "T0.0", st: adt.Counter{N: 2}, dirty: true}},
}, {
	name: "commit into a parent that does not hold renames",
	steps: []scriptStep{
		{op: opWrite, tx: "T0.0"},
		{op: opWrite, tx: "T0.0.1.0"},
		{op: opCommit, tx: "T0.0.1.0"},
	},
	chain: []writeHolder{{t: "T0.0", st: adt.Counter{N: 1}, dirty: true}, {t: "T0.0.1", st: adt.Counter{N: 2}, dirty: true}},
}, {
	name: "abort of a subtree whose child wrote over its parent's version",
	steps: []scriptStep{
		{op: opWrite, tx: "T0.0"},
		{op: opWrite, tx: "T0.0.0"},
		{op: opWrite, tx: "T0.0.0.1"},
		{op: opCommit, tx: "T0.0.0.1"},
		{op: opRead, tx: "T0.0.0"},
		{op: opAbort, tx: "T0.0.0"},
	},
	chain: []writeHolder{{t: "T0.0", st: adt.Counter{N: 1}, dirty: true}},
}, {
	name: "top-level commit leaves the version to the store",
	steps: []scriptStep{
		{op: opWrite, tx: "T0.1.0"},
		{op: opCommit, tx: "T0.1.0"},
		{op: opCommit, tx: "T0.1"},
	},
	committed: adt.Counter{N: 1},
}, {
	name: "a reader committing to top level leaves no read lock",
	steps: []scriptStep{
		{op: opRead, tx: "T0.2.0"},
		{op: opRead, tx: "T0.1"},
		{op: opCommit, tx: "T0.2.0"},
		{op: opCommit, tx: "T0.2"},
	},
	read: []tree.TID{"T0.1"},
}, {
	name: "exclusive-mode reader never turns dirty",
	mode: core.Exclusive,
	steps: []scriptStep{
		{op: opRead, tx: "T0.0.0"},
		{op: opCommit, tx: "T0.0.0"},
		{op: opRead, tx: "T0.0"},
	},
	chain: []writeHolder{{t: "T0.0", st: adt.Counter{}}},
}, {
	name: "exclusive-mode reader turns dirty when a writing child commits into it",
	mode: core.Exclusive,
	steps: []scriptStep{
		{op: opRead, tx: "T0.0"},
		{op: opWrite, tx: "T0.0.1"},
		{op: opCommit, tx: "T0.0.1"},
	},
	chain: []writeHolder{{t: "T0.0", st: adt.Counter{N: 1}, dirty: true}},
}}

func TestChainEdges(t *testing.T) {
	for _, tc := range chainEdges {
		t.Run(tc.name, func(t *testing.T) {
			l := runScript(t, tc.mode, tc.steps)
			ls := l.m.lookup("x0")
			if got := ls.chain; !slices.Equal(got, tc.chain) {
				t.Errorf("chain = %+v, want %+v", got, tc.chain)
			}
			if !sameMembers(ls.read, tree.NewSet(tc.read...)) {
				t.Errorf("read-lockholders = %v, want %v", ls.read.Members(), tc.read)
			}
			want := tc.committed
			if want == nil {
				want = adt.Counter{}
			}
			if got := ls.Latest(); got != want {
				t.Errorf("store's latest x0 = %v, want %v", got, want)
			}
			l.windDown(t)
		})
	}
}

// FuzzLockTablesRefineMX decodes a byte string into grant, nested-commit
// and subtree-abort steps the locking rule admits and checks, after each,
// that the lock tables refine the set-based M(X).
func FuzzLockTablesRefineMX(f *testing.F) {
	for _, tc := range chainEdges {
		f.Add(encodeScript(tc.mode, tc.steps))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+2*64 { // 21 transactions return long before that
			return
		}
		mode, steps := decodeScript(data)
		runScript(t, mode, steps).windDown(t)
	})
}

// TestRootHasNoEntry: the root's version is the store's, so a chain entry
// naming the root is a second copy of committed state, and the invariant
// check refuses it.
func TestRootHasNoEntry(t *testing.T) {
	m := newMgr(t)
	ls := m.lookup("X")
	ls.chain = append(ls.chain, writeHolder{t: tree.Root, st: ls.Latest()})
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a chain entry for the root")
	}
}

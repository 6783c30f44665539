package lockmgr

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nestedtx/internal/adt"
	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/tree"
)

// lockstep drives a Manager and, per object, the set-based M(X) of
// internal/core — the specification the lock tables refine — through the
// same steps, and compares the two after each one.
type lockstep struct {
	m       *Manager
	st      *event.SystemType
	objects []string
	mx      map[string]*core.LockObject
	// mutated is the one thing M(X) has no word for: per object, the
	// write-lockholders whose version differs from the one below because
	// of a non-read-only op — what the chain calls dirty.
	mutated map[string]tree.Set
	// What the steps imply the manager's counters must read.
	acquires, commitMoves, abortReleases uint64
}

func newLockstep(tb testing.TB, mode core.Mode, shards int, objects ...string) *lockstep {
	tb.Helper()
	l := &lockstep{
		m:       NewSharded(nil, mode, nil, shards),
		st:      event.NewSystemType(),
		objects: objects,
		mx:      make(map[string]*core.LockObject),
		mutated: make(map[string]tree.Set),
	}
	for _, x := range objects {
		l.st.DefineObject(x, adt.Counter{})
		if err := l.m.Register(x, adt.Counter{}); err != nil {
			tb.Fatal(err)
		}
		mx, err := core.NewLockObject(l.st, x, mode)
		if err != nil {
			tb.Fatal(err)
		}
		l.mx[x] = mx
		l.mutated[x] = tree.NewSet()
	}
	return l
}

// access runs access (a fresh child of tx) applying op to x on both sides
// when M(X) enables its response, and reports whether it did. The manager
// must agree on admission, so nothing ever waits, and on the value. M(X)
// decides on the access, the manager on tx; whether or not it is enabled,
// the access and tx must be blocked by the same holders and wait for the
// same transactions.
func (l *lockstep) access(tx, access tree.TID, x string, op adt.Op) (bool, error) {
	if err := l.st.DefineAccess(access, x, op); err != nil {
		return false, err
	}
	mx := l.mx[x]
	if err := mx.Create(access); err != nil {
		return false, err
	}
	enabled := mx.RespondEnabled(access) == nil
	sh := l.m.shardFor(x)
	sh.mu.Lock()
	ls, write := l.m.lookup(x), l.m.isWrite(op)
	blocked := ls.blocked(tx, write)
	byAccess, byTx := ls.waitsFor(access, write, nil), ls.waitsFor(tx, write, nil)
	accessBlocked := ls.blocked(access, write)
	sh.mu.Unlock()
	slices.Sort(byAccess)
	slices.Sort(byTx)
	if accessBlocked != blocked || (len(byTx) > 0) != blocked || !slices.Equal(byAccess, byTx) {
		return false, fmt.Errorf("%s on %s: the access is blocked=%v waiting for %v, %s blocked=%v waiting for %v", access, x, accessBlocked, byAccess, tx, blocked, byTx)
	}
	if blocked == enabled {
		return false, fmt.Errorf("%s on %s: M(X) enabled=%v but the lock tables say blocked=%v", access, x, enabled, blocked)
	}
	if !enabled {
		return false, nil
	}
	v, err := l.m.Acquire(tx, access, x, op, nil)
	if err != nil {
		return false, err
	}
	ev, err := mx.Respond(access)
	if err != nil {
		return false, err
	}
	if ev.Value != v {
		return false, fmt.Errorf("%s on %s: manager answered %v, M(X) %v", access, x, v, ev.Value)
	}
	// The access commits at once and its lock passes to tx.
	if err := mx.InformCommit(access); err != nil {
		return false, err
	}
	if !op.ReadOnly() {
		l.mutated[x].Add(tx)
	}
	l.acquires++
	return true, nil
}

// commit passes tx's locks to its parent: one move per object tx holds a
// lock on. A top-level tx first publishes what it wrote to the store, as
// the runtime does: the store's latest is the root's version.
func (l *lockstep) commit(tx tree.TID) error {
	commitTop(l.m, tx)
	for x, mx := range l.mx {
		if mx.WriteLockholders().Has(tx) || mx.ReadLockholders().Has(tx) {
			l.commitMoves++
		}
		if err := mx.InformCommit(tx); err != nil {
			return err
		}
		if mut := l.mutated[x]; mut.Has(tx) {
			mut.Remove(tx)
			mut.Add(tx.Parent())
		}
	}
	return nil
}

// abort discards the locks of tx's whole subtree: one release per object
// that loses a holder.
func (l *lockstep) abort(tx tree.TID) error {
	l.m.Abort(tx)
	for x, mx := range l.mx {
		for _, s := range []tree.Set{mx.WriteLockholders(), mx.ReadLockholders()} {
			before := s.Len()
			if s.RemoveDescendantsOf(tx); s.Len() != before {
				l.abortReleases++
				break
			}
		}
		if err := mx.InformAbort(tx); err != nil {
			return err
		}
		l.mutated[x].RemoveDescendantsOf(tx)
	}
	return nil
}

// check verifies the manager's own invariants and then the refinement:
// the chain's holders are exactly M(X)'s write-lockholders but the root,
// each holds the version M(X) maps it to and is dirty exactly when it
// mutated, the root's version is the store's latest — the lock manager
// holds no committed state of its own — the read table is M(X)'s minus the
// root (which conflicts with nobody), and a top-level transaction would
// publish exactly the versions it mutated.
func (l *lockstep) check() error {
	if err := l.m.CheckInvariants(); err != nil {
		return err
	}
	publish := map[tree.TID]map[string]adt.State{}
	for _, x := range l.objects {
		mx := l.mx[x]
		for _, s := range []tree.Set{mx.WriteLockholders(), mx.ReadLockholders()} {
			for t := range s {
				if t.Level() != 1 {
					continue
				}
				if _, seen := publish[t]; !seen {
					publish[t] = nil
				}
				if v, ok := mx.Version(t); ok && l.mutated[x].Has(t) {
					if publish[t] == nil {
						publish[t] = map[string]adt.State{}
					}
					publish[t][x] = v
				}
			}
		}
	}
	for top, want := range publish {
		if got := l.m.TopVersions(top, nil); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("TopVersions(%s) = %v, M(X) and the steps say %v", top, got, want)
		}
	}
	for _, x := range l.objects {
		mx := l.mx[x]
		if err := mx.CheckLockInvariants(); err != nil {
			return err
		}
		sh := l.m.shardFor(x)
		sh.mu.Lock()
		ls := l.m.lookup(x)
		err := func() error {
			want := mx.WriteLockholders()
			if !want.Has(tree.Root) {
				return fmt.Errorf("%s: M(X) write-lockholders %v leave out the root", x, want.Members())
			}
			want.Remove(tree.Root)
			if len(ls.chain) != want.Len() {
				return fmt.Errorf("%s: chain %v, M(X) write-lockholders %v and the root", x, ls.chain, want.Members())
			}
			if v, _ := mx.Version(tree.Root); !reflect.DeepEqual(v, ls.Latest()) {
				return fmt.Errorf("%s: the store's latest version is %v, M(X) maps the root to %v", x, ls.Latest(), v)
			}
			for _, h := range ls.chain {
				v, ok := mx.Version(h.t)
				if !ok {
					return fmt.Errorf("%s: chain holds %s, M(X) write-lockholders are %v", x, h.t, want.Members())
				}
				if !reflect.DeepEqual(v, h.st) {
					return fmt.Errorf("%s: %s holds version %v, M(X) maps it to %v", x, h.t, h.st, v)
				}
				if h.dirty != l.mutated[x].Has(h.t) {
					return fmt.Errorf("%s: %s dirty=%v, the steps say %v", x, h.t, h.dirty, !h.dirty)
				}
			}
			wantRead := mx.ReadLockholders()
			wantRead.Remove(tree.Root)
			if !sameMembers(ls.read, wantRead) {
				return fmt.Errorf("%s: read-lockholders %v, M(X) says %v", x, ls.read.Members(), wantRead.Members())
			}
			return nil
		}()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// sameMembers reports whether a and b hold exactly the same transactions.
// A nil set and an empty one are the same set: an object with no reader
// keeps no read set.
func sameMembers(a, b tree.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if !b.Has(t) {
			return false
		}
	}
	return true
}

// checkAtRest verifies what must hold once every transaction has ended:
// the counters equal what the steps imply, nothing waited, and nothing per
// transaction survives — the root is listed nowhere, so no record of
// either kind, a shard's or a stripe's, is left.
func (l *lockstep) checkAtRest() error {
	st := l.m.Stats()
	if st.Acquires != l.acquires || st.CommitMoves != l.commitMoves || st.AbortReleases != l.abortReleases {
		return fmt.Errorf("Stats = acquires %d, commit moves %d, abort releases %d; the steps imply %d, %d, %d",
			st.Acquires, st.CommitMoves, st.AbortReleases, l.acquires, l.commitMoves, l.abortReleases)
	}
	if st.Waits != 0 {
		return fmt.Errorf("Waits = %d: M(X) enabled a response the manager blocked", st.Waits)
	}
	for _, sh := range l.m.shards {
		if n := len(sh.trees); n != 0 {
			return fmt.Errorf("shard %d: %d tree records after every transaction ended", sh.id, n)
		}
	}
	for i := range l.m.stripes {
		if n := len(l.m.stripes[i].trees); n != 0 {
			return fmt.Errorf("stripe %d: %d entries after every transaction ended", i, n)
		}
	}
	return nil
}

// TestRandomSequenceAgainstModel runs a seeded single-threaded sequence of
// grants, nested commits and subtree aborts — only grants M(X) enables, so
// nothing ever waits — and after every step checks the invariants (lock
// sets renamed, merged and recycled; records and held bits) and that the lock
// tables refine M(X). At the end the counters equal what the sequence
// implies and every per-transaction index is gone.
func TestRandomSequenceAgainstModel(t *testing.T) {
	for _, shards := range []int{1, 2, 7, 130} { // 130: a footprint of three words
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, mode := range []core.Mode{core.ReadWrite, core.Exclusive} {
				t.Run(mode.String(), func(t *testing.T) { randomSequence(t, mode, shards) })
			}
		})
	}
}

func randomSequence(t *testing.T, mode core.Mode, shards int) {
	rng := rand.New(rand.NewSource(int64(shards)))
	objects := make([]string, 12)
	for i := range objects {
		objects[i] = fmt.Sprintf("obj%d", i)
	}
	l := newLockstep(t, mode, shards, objects...)
	var live []tree.TID                // every transaction that has not returned
	nextChild := map[tree.TID]int{}    // per parent (and the root)
	liveChildren := map[tree.TID]int{} // running subtransactions
	begin := func(p tree.TID) {
		c := p.Child(nextChild[p])
		nextChild[p]++
		liveChildren[p]++
		live = append(live, c)
	}
	// end removes tx (and, aborting, its subtree) from the live set.
	end := func(tx tree.TID, subtree bool) {
		liveChildren[tx.Parent()]--
		kept := live[:0]
		for _, u := range live {
			if u == tx || (subtree && u.IsDescendantOf(tx)) {
				delete(liveChildren, u)
				continue
			}
			kept = append(kept, u)
		}
		live = kept
	}
	must := func(i int, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	step := func(i int) {
		if len(live) == 0 {
			begin(tree.Root)
			return
		}
		tx := live[rng.Intn(len(live))]
		switch r := rng.Intn(20); {
		case r < 2 && len(live) < 12:
			begin(tree.Root)
		case r < 6 && tx.Level() < 4:
			begin(tx)
		case r < 15:
			x := objects[rng.Intn(len(objects))]
			var op adt.Op = adt.CtrGet{}
			if rng.Intn(2) == 0 {
				op = adt.CtrAdd{Delta: 1}
			}
			access := tx.Child(nextChild[tx])
			nextChild[tx]++
			_, err := l.access(tx, access, x, op)
			must(i, err)
		case r < 18:
			if liveChildren[tx] > 0 {
				return // a transaction commits after its children return
			}
			must(i, l.commit(tx))
			end(tx, false)
		default:
			must(i, l.abort(tx))
			end(tx, true)
		}
	}
	const steps = 4000
	for i := 0; i < steps; i++ {
		step(i)
		must(i, l.check())
	}
	// Wind down: abort what is left, top-level by top-level.
	for len(live) > 0 {
		top := topOf(live[0])
		must(steps, l.abort(top))
		end(top, true)
		must(steps, l.check())
	}
	must(steps, l.checkAtRest())
	if l.acquires < steps/8 || l.commitMoves == 0 || l.abortReleases == 0 {
		t.Fatalf("sequence too thin: %d acquires, %d commit moves, %d abort releases", l.acquires, l.commitMoves, l.abortReleases)
	}
}

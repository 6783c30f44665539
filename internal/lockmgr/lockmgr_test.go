package lockmgr

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/tree"
)

// closer is a bare channel as Acquire's cancel: closing it cancels.
type closer chan struct{}

func (c closer) Done() <-chan struct{} { return c }

func newMgr(t testing.TB) *Manager {
	t.Helper()
	m := New(nil, core.ReadWrite, nil)
	if err := m.Register("X", adt.NewRegister(int64(0))); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("Y", adt.NewRegister(int64(0))); err != nil {
		t.Fatal(err)
	}
	return m
}

// commitTop commits t as the runtime does a top-level transaction: what
// t wrote goes to the store first, and only then does Commit drop t's
// entries, for the store's latest version is the root's.
func commitTop(m *Manager, t tree.TID) {
	if t.Parent() == tree.Root {
		if up := m.TopVersions(t, nil); len(up) > 0 {
			m.store.Publish(string(t), up)
		}
	}
	m.Commit(t, nil)
}

// committed returns x's committed state: its latest version in the store.
func committed(m *Manager, x string) adt.State { return m.store.Lookup(x).Latest() }

func TestRegisterDuplicate(t *testing.T) {
	m := newMgr(t)
	if err := m.Register("X", adt.NewRegister(int64(0))); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if got := committed(m, "X"); got.(adt.Register).V != int64(0) {
		t.Fatalf("a refused registration left X at %v", got)
	}
	if m.lookup("zzz") != nil {
		t.Fatal("unknown object must not be registered")
	}
}

// TestEveryRegisteredObjectHasItsOwnLockState: Register cuts lock states
// from a per-shard slab, so objects registered one after another sit side
// by side. One shard and 100 objects span several chunks; a top-level
// write of a distinct value to each must leave every object with its own
// value and every invariant intact.
func TestEveryRegisteredObjectHasItsOwnLockState(t *testing.T) {
	const objects = 100
	m := NewSharded(nil, core.ReadWrite, nil, 1)
	name := func(i int) string { return fmt.Sprintf("x%03d", i) }
	for i := 0; i < objects; i++ {
		if err := m.Register(name(i), adt.Counter{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < objects; i++ {
		top := tree.Root.Child(i)
		if _, err := m.Acquire(top, top.Child(0), name(i), adt.CtrAdd{Delta: int64(i + 1)}, nil); err != nil {
			t.Fatal(err)
		}
		commitTop(m, top)
	}
	for i := 0; i < objects; i++ {
		if got := committed(m, name(i)); got != (adt.Counter{N: int64(i + 1)}) {
			t.Errorf("%s = %v, want %d", name(i), got, i+1)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLockStateChunkFillsItsSizeClass: a chunk of lockStateChunk lock
// states and the 8-byte header Go puts before a pointerful object of over
// 512 B fit the 8,192-byte size class, and one lock state more would not.
func TestLockStateChunkFillsItsSizeClass(t *testing.T) {
	size := int(reflect.TypeOf(lockState{}).Size())
	if n := lockStateChunk*size + 8; n > 8192 {
		t.Errorf("a chunk of %d %d-byte lock states is %d B with its header, past the 8,192-byte class", lockStateChunk, size, n)
	}
	if n := (lockStateChunk+1)*size + 8; n <= 8192 {
		t.Errorf("a chunk of %d %d-byte lock states would still fit the 8,192-byte class", lockStateChunk+1, size)
	}
}

func TestAcquireImmediate(t *testing.T) {
	m := newMgr(t)
	v, err := m.Acquire("T0.0", "T0.0.0", "X", adt.RegWrite{V: int64(5)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(5) {
		t.Fatalf("value %v", v)
	}
	// The same transaction reads its own write.
	v, err = m.Acquire("T0.0", "T0.0.1", "X", adt.RegRead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(5) {
		t.Fatalf("read-own-write %v", v)
	}
	// An unrelated transaction is NOT blocked after commit.
	commitTop(m, "T0.0")
	v, err = m.Acquire("T0.1", "T0.1.0", "X", adt.RegRead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(5) {
		t.Fatalf("committed value %v", v)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockUntilCommit(t *testing.T) {
	m := newMgr(t)
	if _, err := m.Acquire("T0.0", "T0.0.0", "X", adt.RegWrite{V: int64(1)}, nil); err != nil {
		t.Fatal(err)
	}
	got := make(chan adt.Value, 1)
	go func() {
		v, err := m.Acquire("T0.1", "T0.1.0", "X", adt.RegRead{}, nil)
		if err != nil {
			got <- err.Error()
			return
		}
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("read should block while write lock held; got %v", v)
	case <-time.After(30 * time.Millisecond):
	}
	commitTop(m, "T0.0")
	select {
	case v := <-got:
		if v != int64(1) {
			t.Fatalf("value %v, want 1", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader did not wake after commit")
	}
	if st := m.Stats(); st.Waits != 1 || st.Acquires != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAbortRestoresAndWakes(t *testing.T) {
	m := newMgr(t)
	if _, err := m.Acquire("T0.0", "T0.0.0", "X", adt.RegWrite{V: int64(9)}, nil); err != nil {
		t.Fatal(err)
	}
	got := make(chan adt.Value, 1)
	go func() {
		v, _ := m.Acquire("T0.1", "T0.1.0", "X", adt.RegRead{}, nil)
		got <- v
	}()
	time.Sleep(10 * time.Millisecond)
	m.Abort("T0.0")
	select {
	case v := <-got:
		if v != int64(0) {
			t.Fatalf("reader saw %v, want rolled-back 0", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader did not wake after abort")
	}
	if committed(m, "X").(adt.Register).V != int64(0) {
		t.Fatal("state must roll back")
	}
}

func TestCancelUnblocks(t *testing.T) {
	m := newMgr(t)
	if _, err := m.Acquire("T0.0", "T0.0.0", "X", adt.RegWrite{V: int64(1)}, nil); err != nil {
		t.Fatal(err)
	}
	cancel := make(closer)
	errCh := make(chan error, 1)
	go func() {
		_, err := m.Acquire("T0.1", "T0.1.0", "X", adt.RegWrite{V: int64(2)}, cancel)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancel did not unblock")
	}
	// The cancelled waiter is off its object's queue and its tree's list.
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSimpleDeadlockVictim(t *testing.T) {
	m := newMgr(t)
	if _, err := m.Acquire("T0.0", "T0.0.0", "X", adt.RegWrite{V: int64(1)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire("T0.1", "T0.1.0", "Y", adt.RegWrite{V: int64(1)}, nil); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, err := m.Acquire("T0.0", "T0.0.1", "Y", adt.RegWrite{V: int64(2)}, nil)
		errs <- err
	}()
	go func() {
		_, err := m.Acquire("T0.1", "T0.1.1", "X", adt.RegWrite{V: int64(2)}, nil)
		errs <- err
	}()
	var victim, ok int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				victim++
				// The victim's transaction aborts, releasing its locks.
				if victim == 1 {
					m.Abort("T0.1")
					m.Abort("T0.0") // harmless for the non-victim? No —
					// only abort the actual victim in real usage; here we
					// cannot know which, so this test aborts whichever is
					// safe: see below.
				}
			} else if err == nil {
				ok++
			} else {
				t.Fatalf("unexpected error %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("deadlock not resolved")
		}
	}
	if victim < 1 {
		t.Fatalf("deadlock victim expected (victims=%d ok=%d)", victim, ok)
	}
	if m.Stats().Deadlocks == 0 {
		t.Fatal("deadlock counter")
	}
}

// TestAncestryDeadlock reproduces the subtle case: locks held by
// *top-level* transactions (after inheritance) block each other's
// *subtransactions* — the cycle exists only when the graph includes
// structural parent→descendant edges.
func TestAncestryDeadlock(t *testing.T) {
	m := newMgr(t)
	// T0.0's child committed a write on X; the lock is inherited by T0.0.
	if _, err := m.Acquire("T0.0", "T0.0.0", "X", adt.RegWrite{V: int64(1)}, nil); err != nil {
		t.Fatal(err)
	}
	// T0.1's child committed a write on Y; inherited by T0.1.
	if _, err := m.Acquire("T0.1", "T0.1.0", "Y", adt.RegWrite{V: int64(1)}, nil); err != nil {
		t.Fatal(err)
	}
	// Now T0.0's *subtransaction* T0.0.1 wants Y, and T0.1's
	// subtransaction T0.1.1 wants X.
	errs := make(chan error, 2)
	go func() {
		_, err := m.Acquire("T0.0.1", "T0.0.1.0", "Y", adt.RegWrite{V: int64(2)}, nil)
		errs <- err
	}()
	go func() {
		_, err := m.Acquire("T0.1.1", "T0.1.1.0", "X", adt.RegWrite{V: int64(2)}, nil)
		errs <- err
	}()
	deadlocks := 0
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				deadlocks++
				// Abort the victim subtransaction's top-level so the other
				// side can proceed.
				m.Abort("T0.0")
				m.Abort("T0.1")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("ancestry deadlock not detected (graph missing structural edges)")
		}
	}
	if deadlocks < 1 {
		t.Fatal("expected a deadlock victim")
	}
}

// TestGrantCompletesCycle: a compatible read grant forms the last edge of
// a cycle without any new waiter registering.
func TestGrantCompletesCycle(t *testing.T) {
	m := newMgr(t)
	// C holds a read lock on X.
	if _, err := m.Acquire("T0.2", "T0.2.0", "X", adt.RegRead{}, nil); err != nil {
		t.Fatal(err)
	}
	// B waits for a write lock on X (blocked by C's read lock).
	bErr := make(chan error, 1)
	go func() {
		_, err := m.Acquire("T0.1", "T0.1.0", "X", adt.RegWrite{V: int64(1)}, nil)
		bErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	// B also holds a write lock on Y.
	// (Simulate via a sibling acquire for the same transaction T0.1 from
	// another goroutine — T0.1 is the holder.)
	if _, err := m.Acquire("T0.1", "T0.1.1", "Y", adt.RegWrite{V: int64(1)}, nil); err != nil {
		t.Fatal(err)
	}
	// C now waits for Y (blocked by B): edge C→B exists, B→C existed
	// since B's wait. The cycle completed at C's registration here, OR at
	// a later grant — both paths are exercised across this suite.
	cErr := make(chan error, 1)
	go func() {
		_, err := m.Acquire("T0.2", "T0.2.1", "Y", adt.RegWrite{V: int64(2)}, nil)
		cErr <- err
	}()
	gotVictim := false
	for i := 0; i < 2 && !gotVictim; i++ {
		select {
		case err := <-bErr:
			if errors.Is(err, ErrDeadlock) {
				gotVictim = true
			}
		case err := <-cErr:
			if errors.Is(err, ErrDeadlock) {
				gotVictim = true
			}
		case <-time.After(2 * time.Second):
			t.Fatal("cycle not detected")
		}
	}
	if !gotVictim {
		t.Fatal("no deadlock victim")
	}
}

// TestWaitDiamondIsNoCycle: two wait paths lead into one transaction, and
// that is not a cycle. T0.2 and T0.3 read X and then wait to read Y, which
// T0.4 writes; T0.1 waits to write X behind both readers. The walk from
// T0.1 reaches T0.4 through T0.2, finishes it, and reaches it again
// through T0.3: a walk that left the finished T0.4 on its path would
// read the second arrival as a cycle and elect a victim. One shard keeps
// every walk inside the waiter's critical section, so once T0.1 is seen
// queued the walk its wait started is over.
func TestWaitDiamondIsNoCycle(t *testing.T) {
	m := NewSharded(nil, core.ReadWrite, nil, 1)
	for _, x := range []string{"X", "Y"} {
		if err := m.Register(x, adt.NewRegister(int64(0))); err != nil {
			t.Fatal(err)
		}
	}
	acquire := func(tx tree.TID, x string, op adt.Op) {
		t.Helper()
		if _, err := m.Acquire(tx, "", x, op, nil); err != nil {
			t.Fatal(err)
		}
	}
	acquire("T0.4", "Y", adt.RegWrite{V: int64(4)})
	acquire("T0.2", "X", adt.RegRead{})
	acquire("T0.3", "X", adt.RegRead{})
	errs := make(map[tree.TID]chan error)
	wait := func(tx tree.TID, x string, op adt.Op, queued int) {
		t.Helper()
		ch := make(chan error, 1)
		errs[tx] = ch
		go func() {
			_, err := m.Acquire(tx, "", x, op, nil)
			ch <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); m.queueDepth(x) < queued; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never queued on %s", tx, x)
			}
		}
	}
	wait("T0.2", "Y", adt.RegRead{}, 1)
	wait("T0.3", "Y", adt.RegRead{}, 2)
	wait("T0.1", "X", adt.RegWrite{V: int64(1)}, 1)
	for tx, ch := range errs {
		select {
		case err := <-ch:
			t.Fatalf("%s returned %v while T0.4 still holds Y", tx, err)
		default:
		}
	}
	if n := m.Stats().Deadlocks; n != 0 {
		t.Fatalf("%d victims elected in a wait-for graph with no cycle", n)
	}
	granted := func(tx tree.TID) {
		t.Helper()
		select {
		case err := <-errs[tx]:
			if err != nil {
				t.Fatalf("%s: %v", tx, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never granted", tx)
		}
	}
	commitTop(m, "T0.4")
	granted("T0.2")
	granted("T0.3")
	commitTop(m, "T0.2")
	commitTop(m, "T0.3")
	granted("T0.1")
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGrantBesideAQueuedWaiterAllocatesNothing: a grant on an object
// with a queued waiter walks the wait-for graph from that waiter, since
// the grant may have closed a cycle. The walk keeps its visited set, its
// path, its successor lists and its start list on the shard, so once
// they have grown a walk that finds no cycle allocates nothing. Here
// T0.0 holds a read lock on x, T0.1 waits to write x, and T0.0 reads x
// again: a memo hit, and a walk T0.1 → T0.0 that ends there. A walk that
// made its maps, closure, successor buffers and start list afresh read 4.
func TestGrantBesideAQueuedWaiterAllocatesNothing(t *testing.T) {
	m := memoMgr(t, core.ReadWrite)
	expect(t, m, "T0.0", "", "x", adt.CtrGet{}, int64(hot))
	waited := make(chan error, 1)
	go func() {
		_, err := m.Acquire("T0.1", "", "x", adt.CtrAdd{Delta: 1}, nil)
		waited <- err
	}()
	sh, ls := m.shardFor("x"), lockStateOf(m, "x")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		sh.mu.Lock()
		queued := len(ls.queue)
		sh.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("T0.1 never queued behind T0.0's read lock")
		}
	}
	before := sh.stats.Acquires
	read := func() {
		if _, err := m.Acquire("T0.0", "", "x", adt.CtrGet{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(100, read)
	t.Logf("a grant beside a queued waiter: %.1f allocations", n)
	if n != 0 {
		t.Errorf("a grant beside a queued waiter allocates %.1f, want 0", n)
	}
	sh.mu.Lock()
	grants, queued := sh.stats.Acquires-before, len(ls.queue)
	sh.mu.Unlock()
	if grants != 101 || queued != 1 {
		t.Fatalf("%d grants with %d queued, want 101 beside the one waiter", grants, queued)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.Commit("T0.0", nil)
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	m.Abort("T0.1")
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestVictimTieBreakNumeric pins the "latest sibling" victim choice: in a
// level-tied cycle between T0.9 and T0.10 the victim must be T0.10. A
// lexicographic tie-break gets this backwards ("T0.9" > "T0.10" as
// strings), so this test fails against string comparison.
func TestVictimTieBreakNumeric(t *testing.T) {
	m := New(nil, core.ReadWrite, nil)
	for _, x := range []string{"X", "Y"} {
		if err := m.Register(x, adt.NewRegister(int64(0))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Acquire("T0.9", "T0.9.0", "X", adt.RegWrite{V: int64(1)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire("T0.10", "T0.10.0", "Y", adt.RegWrite{V: int64(1)}, nil); err != nil {
		t.Fatal(err)
	}
	type res struct {
		tx  tree.TID
		err error
	}
	results := make(chan res, 2)
	go func() {
		_, err := m.Acquire("T0.9", "T0.9.1", "Y", adt.RegWrite{V: int64(2)}, nil)
		results <- res{"T0.9", err}
	}()
	time.Sleep(10 * time.Millisecond)
	go func() {
		_, err := m.Acquire("T0.10", "T0.10.1", "X", adt.RegWrite{V: int64(2)}, nil)
		results <- res{"T0.10", err}
	}()
	// Exactly one side is the victim, and it must be T0.10 (the latest
	// sibling under numeric path order).
	var victims, grants []tree.TID
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if errors.Is(r.err, ErrDeadlock) {
				victims = append(victims, r.tx)
				m.Abort(r.tx) // release the victim's locks so the other side proceeds
			} else if r.err == nil {
				grants = append(grants, r.tx)
			} else {
				t.Fatalf("%s: unexpected error %v", r.tx, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("deadlock not resolved (victims=%v grants=%v)", victims, grants)
		}
	}
	if len(victims) != 1 || victims[0] != "T0.10" {
		t.Fatalf("victim = %v, want [T0.10]", victims)
	}
}

// TestCancelVictimRace pins the Acquire contract when a deadlock-victim
// choice races an external cancel: the victim outcome — already counted
// in Stats.Deadlocks — must win, so retry loops keyed on ErrDeadlock
// observe it. The victim's wake channel and the cancel channel are both
// ready when the waiter's select runs; either branch must report
// ErrDeadlock.
func TestCancelVictimRace(t *testing.T) {
	// The select between wake and cancel picks pseudo-randomly when both
	// are ready; iterate so each branch is exercised with overwhelming
	// probability.
	for iter := 0; iter < 25; iter++ {
		m := newMgr(t)
		// T0.2 read-holds X; T0.5 write-holds Y.
		if _, err := m.Acquire("T0.2", "T0.2.0", "X", adt.RegRead{}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Acquire("T0.5", "T0.5.0", "Y", adt.RegWrite{V: int64(1)}, nil); err != nil {
			t.Fatal(err)
		}
		// T0.5 blocks writing X (conflicts with T0.2's read lock).
		cancel := make(closer)
		errCh := make(chan error, 1)
		go func() {
			_, err := m.Acquire("T0.5", "T0.5.1", "X", adt.RegWrite{V: int64(2)}, cancel)
			errCh <- err
		}()
		time.Sleep(5 * time.Millisecond)
		// T0.2 requesting Y completes the cycle; the victim (deepest,
		// latest sibling: T0.5) is chosen while its waiter sleeps.
		otherErr := make(chan error, 1)
		go func() {
			_, err := m.Acquire("T0.2", "T0.2.1", "Y", adt.RegWrite{V: int64(3)}, nil)
			otherErr <- err
		}()
		deadline := time.Now().Add(5 * time.Second)
		for m.Stats().Deadlocks == 0 {
			if time.Now().After(deadline) {
				t.Fatal("victim never chosen")
			}
			time.Sleep(100 * time.Microsecond)
		}
		// The waiter is a chosen victim; now the cancel also fires. Both
		// select branches are ready — the result must still be the
		// deadlock, not ErrCancelled.
		close(cancel)
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("iter %d: victim+cancel returned %v, want ErrDeadlock", iter, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("victim waiter did not return")
		}
		// Clean up: abort the victim so T0.2's pending acquire completes.
		m.Abort("T0.5")
		select {
		case err := <-otherErr:
			if err != nil && !errors.Is(err, ErrDeadlock) {
				t.Fatalf("survivor error %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("survivor did not proceed after victim abort")
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTargetedWakeupStats pins the wakeup discipline: a commit wakes only
// the waiters queued on objects whose lock tables it changed — a commit
// on an unrelated object disturbs nobody — and the new Stats counters
// observe it.
func TestTargetedWakeupStats(t *testing.T) {
	m := newMgr(t)
	if _, err := m.Acquire("T0.0", "T0.0.0", "X", adt.RegWrite{V: int64(1)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire("T0.1", "T0.1.0", "Y", adt.RegWrite{V: int64(1)}, nil); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := m.Acquire("T0.2", "T0.2.0", "X", adt.RegRead{}, nil)
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if d := m.Stats().MaxQueueDepth; d != 1 {
		t.Fatalf("MaxQueueDepth = %d, want 1", d)
	}
	// Committing T0.1 changes only Y's lock table: the waiter on X must
	// not be woken.
	m.Commit("T0.1", int64(0))
	select {
	case err := <-got:
		t.Fatalf("waiter on X woke after unrelated commit on Y (err=%v)", err)
	case <-time.After(30 * time.Millisecond):
	}
	if w := m.Stats().Wakeups; w != 0 {
		t.Fatalf("Wakeups = %d after unrelated commit, want 0", w)
	}
	// Committing T0.0 releases X: exactly one targeted wakeup, and the
	// woken waiter is admitted (no spurious re-block).
	m.Commit("T0.0", int64(0))
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter on X did not wake after commit on X")
	}
	st := m.Stats()
	if st.Wakeups != 1 {
		t.Fatalf("Wakeups = %d, want 1", st.Wakeups)
	}
	if st.SpuriousWakeups != 0 {
		t.Fatalf("SpuriousWakeups = %d, want 0", st.SpuriousWakeups)
	}
	m.Commit("T0.2", int64(0))
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHeldIndexTracksInheritance walks a lock through a commit chain and
// an abort and checks (via CheckInvariants' index⇄table cross-check) that
// the held-locks index follows the lock at every step.
func TestHeldIndexTracksInheritance(t *testing.T) {
	m := newMgr(t)
	check := func(step string) {
		t.Helper()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	if _, err := m.Acquire("T0.0.0", "T0.0.0.0", "X", adt.RegWrite{V: int64(7)}, nil); err != nil {
		t.Fatal(err)
	}
	check("after grant to T0.0.0")
	m.Commit("T0.0.0", int64(0)) // lock inherited by T0.0
	check("after commit of T0.0.0")
	if _, err := m.Acquire("T0.0.1", "T0.0.1.0", "Y", adt.RegRead{}, nil); err != nil {
		t.Fatal(err)
	}
	check("after read grant to T0.0.1")
	m.Abort("T0.0") // discards the whole subtree's locks and index entries
	check("after abort of T0.0")
	// Everything is released: an unrelated writer proceeds immediately and
	// sees the rolled-back state.
	v, err := m.Acquire("T0.1", "T0.1.0", "X", adt.RegRead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(0) {
		t.Fatalf("X = %v after abort, want rolled-back 0", v)
	}
	if st := m.Stats(); st.Waits != 0 {
		t.Fatalf("Waits = %d, want 0 (nothing should have blocked)", st.Waits)
	}
}

func TestRecordingProducesLegalSchedule(t *testing.T) {
	rec := event.NewRecorder()
	m := New(rec, core.ReadWrite, nil)
	if err := m.Register("X", adt.NewRegister(int64(0))); err != nil {
		t.Fatal(err)
	}
	rec.Record(event.Event{Kind: event.Create, T: tree.Root})
	rec.RecordAll(
		event.Event{Kind: event.RequestCreate, T: "T0.0"},
		event.Event{Kind: event.Create, T: "T0.0"},
	)
	rec.RecordAll(
		event.Event{Kind: event.RequestCreate, T: "T0.0.0"},
		event.Event{Kind: event.Create, T: "T0.0.0"},
	)
	if _, err := m.Acquire("T0.0", "T0.0.0", "X", adt.RegWrite{V: int64(3)}, nil); err != nil {
		t.Fatal(err)
	}
	rec.Record(event.Event{Kind: event.RequestCommit, T: "T0.0", Value: int64(1)})
	m.Commit("T0.0", int64(1))
	// The recorded schedule replays on the formal M(X) automaton.
	st := event.NewSystemType()
	st.DefineObject("X", adt.NewRegister(int64(0)))
	st.MustDefineAccess("T0.0.0", "X", adt.RegWrite{V: int64(3)})
	sched := rec.Snapshot()
	if err := event.WFConcurrent(sched, st); err != nil {
		t.Fatalf("recorded schedule ill-formed: %v\n%s", err, sched)
	}
	if _, err := core.Replay(st, "X", core.ReadWrite, sched.AtLockObject(st, "X")); err != nil {
		t.Fatalf("recorded schedule does not replay on M(X): %v\n%s", err, sched)
	}
}

func TestConcurrentStress(t *testing.T) {
	m := newMgr(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := tree.Root.Child(i + 10)
			for j := 0; j < 50; j++ {
				obj := "X"
				if j%2 == 0 {
					obj = "Y"
				}
				var op adt.Op = adt.RegRead{}
				if j%3 == 0 {
					op = adt.RegWrite{V: int64(j)}
				}
				if _, err := m.Acquire(tx, tx.Child(j), obj, op, nil); err != nil {
					if errors.Is(err, ErrDeadlock) {
						m.Abort(tx)
						return
					}
					t.Error(err)
					return
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Error(err)
			}
			m.Commit(tx, int64(0))
		}(i)
	}
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWokenAndCancelledWaiterLeavesOnce: a commit wakes a waiter whose
// cancel channel closes in the same instant. Whichever branch the waiter's
// select takes, it has left the books once — its sibling, still queued on
// another object of the same shard, must keep the tree listed as waiting
// there, or a deadlock walk in another shard calls the tree confined and
// misses the sibling's edges.
func TestWokenAndCancelledWaiterLeavesOnce(t *testing.T) {
	// One P: the waiter does not run between close(cancel) and Commit. A
	// parked select takes the case of the channel that readied it, so even
	// rounds (cancel first) return through the cancel exit after the commit
	// already woke the waiter, odd rounds (commit first) through the wake.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Two objects of shard 0.
			var objs []string
			for i := 0; len(objs) < 2; i++ {
				if x := fmt.Sprintf("obj%d", i); ShardOf(x, shards) == 0 {
					objs = append(objs, x)
				}
			}
			a, b := objs[0], objs[1]
			cancelled := 0
			for round := 0; round < 200; round++ {
				m := NewSharded(nil, core.ReadWrite, nil, shards)
				for _, x := range objs {
					if err := m.Register(x, adt.NewRegister(int64(0))); err != nil {
						t.Fatal(err)
					}
				}
				mustAcquire := func(tx tree.TID, x string) {
					t.Helper()
					if _, err := m.Acquire(tx, tx.Child(0), x, adt.RegWrite{V: int64(1)}, nil); err != nil {
						t.Fatal(err)
					}
				}
				mustAcquire("T0.2", a)
				mustAcquire("T0.3", b)
				cancel := make(closer)
				wait := func(tx tree.TID, x string, cancel closer) <-chan error {
					done := make(chan error, 1)
					go func() {
						_, err := m.Acquire(tx, tx.Child(0), x, adt.RegWrite{V: int64(2)}, cancel)
						done <- err
					}()
					for m.queueDepth(x) == 0 {
						runtime.Gosched()
					}
					return done
				}
				first := wait("T0.1.0", a, cancel)
				second := wait("T0.1.1", b, nil)
				if round%2 == 0 {
					close(cancel)
					m.Commit("T0.2", nil)
				} else {
					m.Commit("T0.2", nil)
					close(cancel)
				}
				switch err := <-first; {
				case errors.Is(err, ErrCancelled):
					cancelled++
				case err != nil:
					t.Fatalf("round %d: %v", round, err)
				}
				if m.queueDepth(b) != 1 {
					t.Fatalf("round %d: the sibling is no longer queued on %s", round, b)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if shards > 1 && m.treeConfined("T0.1", 1) {
					t.Fatalf("round %d: tree T0.1 called confined to shard 1 with a waiter queued in shard 0", round)
				}
				m.Commit("T0.3", nil)
				if err := <-second; err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				m.Abort("T0.1")
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("round %d, at rest: %v", round, err)
				}
			}
			if cancelled == 0 || cancelled == 200 {
				t.Fatalf("the cancel won %d of 200 rounds: one of the two exits went untested", cancelled)
			}
		})
	}
}

// TestAbortCostIsItsOwnTrees: aborting a one-lock transaction walks its own
// tree's record, not every lock holder of the shard. The bound is what
// 2,000 aborts cost beside 100,000 other holders with two orders of
// magnitude to spare (measured: 3 ms, -race 15 ms); a scan of the holders
// costs about a millisecond per abort, 2.5 s in all (E25).
func TestAbortCostIsItsOwnTrees(t *testing.T) {
	const holders, rounds, bound = 100_000, 2_000, 500 * time.Millisecond
	m := NewSharded(nil, core.ReadWrite, nil, 1)
	for _, x := range []string{"shared", "own"} {
		if err := m.Register(x, adt.NewRegister(int64(0))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < holders; i++ {
		tx := tree.Root.Child(i)
		if _, err := m.Acquire(tx, tx.Child(0), "shared", adt.RegRead{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		tx := tree.Root.Child(holders + i)
		if _, err := m.Acquire(tx, tx.Child(0), "own", adt.RegWrite{V: int64(i)}, nil); err != nil {
			t.Fatal(err)
		}
		m.Abort(tx)
	}
	d := time.Since(start)
	t.Logf("%d acquire+abort rounds beside %d lock holders: %v", rounds, holders, d)
	if d > bound {
		t.Fatalf("took %v, bound %v", d, bound)
	}
	if st := m.Stats(); st.AbortReleases != rounds || st.Waits != 0 {
		t.Fatalf("stats %+v, want %d abort releases and no waits", st, rounds)
	}
}

// TestIndexMapsAreMadeOnFirstUse: a new manager, and one with objects
// registered, has made no per-tree map; a stripe's map is made by the
// first tree it indexes and a shard's by the first record filed in it,
// and only those. A top-level transaction that commits across two shards
// and one that aborts there leave the maps they made, empty, and the
// invariants hold.
func TestIndexMapsAreMadeOnFirstUse(t *testing.T) {
	const shards = 4
	m := NewSharded(nil, core.ReadWrite, nil, shards)
	unmade := func(step string) {
		t.Helper()
		for _, sh := range m.shards {
			if sh.trees != nil {
				t.Errorf("%s: shard %d has made its trees map", step, sh.id)
			}
		}
		for i := range m.stripes {
			if m.stripes[i].trees != nil {
				t.Errorf("%s: stripe %d has made its trees map", step, i)
			}
		}
	}
	unmade("after NewSharded")
	// One object in shard 0 and one in shard 1.
	var objs []string
	for i := 0; len(objs) < 2; i++ {
		if x := fmt.Sprintf("x%d", i); ShardOf(x, shards) == len(objs) {
			objs = append(objs, x)
		}
	}
	for _, x := range objs {
		if err := m.Register(x, adt.NewRegister(int64(0))); err != nil {
			t.Fatal(err)
		}
	}
	unmade("after Register")

	committer, aborter := tree.Root.Child(0), tree.Root.Child(1)
	for _, top := range []tree.TID{committer, aborter} {
		for i, x := range objs {
			if _, err := m.Acquire(top, top.Child(i), x, adt.RegWrite{V: int64(i + 1)}, nil); err != nil {
				t.Fatal(err)
			}
			m.Commit(top.Child(i), nil)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s holding in both shards: %v", top, err)
		}
		if top == committer {
			commitTop(m, top)
		} else {
			m.Abort(top)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after %s ended: %v", top, err)
		}
	}
	for sid, sh := range m.shards {
		if made := sh.trees != nil; made != (sid < len(objs)) {
			t.Errorf("shard %d: trees map made = %v, want %v", sid, made, sid < len(objs))
		} else if len(sh.trees) != 0 {
			t.Errorf("shard %d still files %d trees", sid, len(sh.trees))
		}
	}
	for i := range m.stripes {
		st := &m.stripes[i]
		touched := st == m.stripeFor(committer) || st == m.stripeFor(aborter)
		if made := st.trees != nil; made != touched {
			t.Errorf("stripe %d: trees map made = %v, want %v", i, made, touched)
		} else if len(st.trees) != 0 {
			t.Errorf("stripe %d still indexes %d trees", i, len(st.trees))
		}
	}
	for i, x := range objs {
		if got := committed(m, x).(adt.Register).V; got != int64(i+1) {
			t.Errorf("%s = %v, want the committer's %d", x, got, i+1)
		}
	}
}

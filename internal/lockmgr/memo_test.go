package lockmgr

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"nestedtx/internal/adt"
	"nestedtx/internal/core"
	"nestedtx/internal/tree"
)

// hot is a counter value past the 0–255 Go boxes without allocating, so a
// read that applies CtrGet allocates its value.
const hot = 1 << 20

// memoMgr registers x, a counter at hot, and y, the set {1}.
func memoMgr(t testing.TB, mode core.Mode) *Manager {
	t.Helper()
	m := NewSharded(nil, mode, nil, 1)
	if err := m.Register("x", adt.Counter{N: hot}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("y", adt.NewIntSet(1)); err != nil {
		t.Fatal(err)
	}
	return m
}

// expect runs one access of tx on x and checks its value and the manager's
// invariants, the memo's among them.
func expect(t testing.TB, m *Manager, tx, access tree.TID, x string, op adt.Op, want adt.Value) {
	t.Helper()
	v, err := m.Acquire(tx, access, x, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != want {
		t.Fatalf("%s: %s on %s = %v, want %v", access, op, x, v, want)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func lockStateOf(m *Manager, x string) *lockState { return m.lookup(x) }

// TestReadAfterWriteSeesTheNewValue: a write replaces the version a read
// was memoized on, and leaves the memo its read-back — CtrGet and the
// total the add returned — so the next read sees the new value.
func TestReadAfterWriteSeesTheNewValue(t *testing.T) {
	m := memoMgr(t, core.ReadWrite)
	expect(t, m, "T0.0", "T0.0.0", "x", adt.CtrGet{}, int64(hot))
	if lockStateOf(m, "x").memo.op == nil {
		t.Fatal("a CtrGet left no memo")
	}
	expect(t, m, "T0.0", "T0.0.1", "x", adt.CtrAdd{Delta: 1}, int64(hot+1))
	if memo := lockStateOf(m, "x").memo; memo != (readMemo{op: adt.CtrGet{}, v: int64(hot + 1)}) {
		t.Fatalf("after an add to %d the memo is (%v, %v), want (get, %d)", hot, memo.op, memo.v, hot+1)
	}
	expect(t, m, "T0.0", "T0.0.2", "x", adt.CtrGet{}, int64(hot+1))
	expect(t, m, "T0.0", "T0.0.3", "x", adt.CtrGet{}, int64(hot+1))
	commitTop(m, "T0.0")
	expect(t, m, "T0.1", "T0.1.0", "x", adt.CtrGet{}, int64(hot+1))
}

// TestReadAfterAbortedWriteSeesTheOldValue: a subtree writes, reads its
// own version (memoizing it) and aborts; the abort truncates the chain
// back to the parent's version, and the parent's next read sees it.
func TestReadAfterAbortedWriteSeesTheOldValue(t *testing.T) {
	m := memoMgr(t, core.ReadWrite)
	expect(t, m, "T0.0", "T0.0.0", "x", adt.CtrGet{}, int64(hot))
	expect(t, m, "T0.0.1", "T0.0.1.0", "x", adt.CtrAdd{Delta: 5}, int64(hot+5))
	expect(t, m, "T0.0.1.1", "T0.0.1.1.0", "x", adt.CtrGet{}, int64(hot+5))
	m.Abort("T0.0.1")
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	expect(t, m, "T0.0", "T0.0.2", "x", adt.CtrGet{}, int64(hot))
}

// TestOpsWithFieldsAreNeverConfused: SetContains carries the member it
// asks about, so it is applied every time and one member's answer is
// never given for another's.
func TestOpsWithFieldsAreNeverConfused(t *testing.T) {
	m := memoMgr(t, core.ReadWrite)
	for i := range 3 {
		expect(t, m, "T0.0", tree.TID("T0.0").Child(2*i), "y", adt.SetContains{X: 1}, true)
		expect(t, m, "T0.0", tree.TID("T0.0").Child(2*i+1), "y", adt.SetContains{X: 2}, false)
	}
	if op := lockStateOf(m, "y").memo.op; op != nil {
		t.Fatalf("memo keeps %s, an op with a field", op)
	}
	// A set's zero-size read is memoized beside them.
	expect(t, m, "T0.0", "T0.0.6", "y", adt.SetSize{}, int64(1))
	expect(t, m, "T0.0", "T0.0.7", "y", adt.SetContains{X: 2}, false)
	expect(t, m, "T0.0", "T0.0.8", "y", adt.SetSize{}, int64(1))
}

// countingRead is a read-only op whose type cannot be compared: == on two
// of its values panics. It counts its applications.
type countingRead struct {
	calls []int
}

func (c countingRead) Apply(s adt.State) (adt.State, adt.Value) {
	c.calls[0]++
	return s, s.(adt.Counter).N
}
func (countingRead) ReadOnly() bool { return true }
func (countingRead) String() string { return "counting-read" }

// TestUncomparableReadIsAppliedEveryTime: a read-only op with a slice
// field is never memoized, so it is applied on every read and never
// compared with another op of its type.
func TestUncomparableReadIsAppliedEveryTime(t *testing.T) {
	m := memoMgr(t, core.ReadWrite)
	op := countingRead{calls: make([]int, 1)}
	for i := range 4 {
		expect(t, m, "T0.0", tree.TID("T0.0").Child(i), "x", op, int64(hot))
	}
	if op.calls[0] != 4 {
		t.Fatalf("4 reads applied the op %d times", op.calls[0])
	}
	expect(t, m, "T0.0", "T0.0.4", "x", adt.CtrGet{}, int64(hot))
	expect(t, m, "T0.0", "T0.0.5", "x", op, int64(hot))
	if op.calls[0] != 5 {
		t.Fatalf("5 reads applied the op %d times", op.calls[0])
	}
}

// TestExclusiveReaderKeepsTheMemo: under exclusive locking a read takes a
// write lock, pushing or overwriting the top of the chain with the version
// it found, so the memo stays; a write then replaces it with its
// read-back, and an abort of the writer brings back the version below.
func TestExclusiveReaderKeepsTheMemo(t *testing.T) {
	m := memoMgr(t, core.Exclusive)
	expect(t, m, "T0.0", "T0.0.0", "x", adt.CtrGet{}, int64(hot))
	expect(t, m, "T0.0.1", "T0.0.1.0", "x", adt.CtrGet{}, int64(hot))
	ls := lockStateOf(m, "x")
	if len(ls.chain) != 2 || ls.memo.op == nil {
		t.Fatalf("after two exclusive reads: chain of %d, memo %v; want 2 and a memo", len(ls.chain), ls.memo.op)
	}
	expect(t, m, "T0.0.1", "T0.0.1.1", "x", adt.CtrAdd{Delta: 2}, int64(hot+2))
	expect(t, m, "T0.0.1", "T0.0.1.2", "x", adt.CtrGet{}, int64(hot+2))
	m.Abort("T0.0.1")
	expect(t, m, "T0.0", "T0.0.2", "x", adt.CtrGet{}, int64(hot))
	m.Commit("T0.0", nil)
	expect(t, m, "T0.1", "T0.1.0", "x", adt.CtrGet{}, int64(hot))
}

// TestReadSetExistsWhileSomeoneReads: an object nobody reads has no read
// set; the first reader draws one, the last reader's commit to the root
// or abort puts it back, and the next object read takes that same set.
func TestReadSetExistsWhileSomeoneReads(t *testing.T) {
	m := memoMgr(t, core.ReadWrite)
	x, y := lockStateOf(m, "x"), lockStateOf(m, "y")
	if x.read != nil || y.read != nil {
		t.Fatal("a registered object nobody read holds a read set")
	}
	expect(t, m, "T0.0", "T0.0.0", "x", adt.CtrGet{}, int64(hot))
	expect(t, m, "T0.1", "T0.1.0", "x", adt.CtrGet{}, int64(hot))
	set := x.read
	m.Commit("T0.0", nil)
	if x.read == nil || x.read.Len() != 1 {
		t.Fatalf("one reader left, read set %v", x.read.Members())
	}
	m.Abort("T0.1")
	if x.read != nil {
		t.Fatalf("no reader left, read set %v", x.read.Members())
	}
	expect(t, m, "T0.2", "T0.2.0", "y", adt.SetSize{}, int64(1))
	if y.read.Len() != 1 || !y.read.Has("T0.2") {
		t.Fatalf("y's read set %v, want [T0.2]", y.read.Members())
	}
	if len(m.shards[0].freeReads) != 0 {
		t.Fatal("y's first reader did not take the free read set")
	}
	y.read.Add("T0.9") // the same map as x's old set
	if !set.Has("T0.9") {
		t.Fatal("y's read set is not the one x gave back")
	}
	y.read.Remove("T0.9")
	m.Commit("T0.2", nil)
	if y.read != nil || len(m.shards[0].freeReads) != 1 {
		t.Fatalf("after the last commit: y's read set %v, %d free", y.read.Members(), len(m.shards[0].freeReads))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedLockedReadAllocatesNothing: once a counter past 255 has been
// read, a top-level transaction that reads it again and commits allocates
// nothing in the lock manager — no box for the value, no read set, no
// record or lock set (all reused).
func TestRepeatedLockedReadAllocatesNothing(t *testing.T) {
	m := memoMgr(t, core.ReadWrite)
	read := func() {
		if _, err := m.Acquire("T0.0", "", "x", adt.CtrGet{}, nil); err != nil {
			t.Fatal(err)
		}
		m.Commit("T0.0", nil)
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("a repeated read costs %.1f allocations, want 0", n)
	}
}

// TestConcurrentReadsAndWritesKeepTheMemoTrue: writers read, add one and
// read their own write; readers read twice and must see one value (their
// read lock keeps writers out). Every value is checked against what the
// steps imply, CheckInvariants checks memo and read sets along the way,
// and the counter ends at its start plus the committed writes.
func TestConcurrentReadsAndWritesKeepTheMemoTrue(t *testing.T) {
	m := memoMgr(t, core.ReadWrite)
	var wg sync.WaitGroup
	var mu sync.Mutex
	commits := 0
	for g := range 8 {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range 50 {
				tx := tree.Root.Child(g*1000 + i)
				err := func() error {
					v0, err := m.Acquire(tx, "", "x", adt.CtrGet{}, nil)
					if err != nil {
						return err
					}
					want := v0
					if g%2 == 0 {
						if want, err = m.Acquire(tx, "", "x", adt.CtrAdd{Delta: 1}, nil); err != nil {
							return err
						}
						if want != v0.(int64)+1 {
							return fmt.Errorf("%s added 1 to %v and got %v", tx, v0, want)
						}
					}
					if v, err := m.Acquire(tx, "", "x", adt.CtrGet{}, nil); err != nil || v != want {
						return fmt.Errorf("%s read %v (%v), want %v", tx, v, err, want)
					}
					return nil
				}()
				switch {
				case errors.Is(err, ErrDeadlock):
					m.Abort(tx)
				case err != nil:
					t.Error(err)
					m.Abort(tx)
					return
				default:
					if err := m.CheckInvariants(); err != nil {
						t.Error(err)
					}
					commitTop(m, tx)
					if g%2 == 0 {
						mu.Lock()
						commits++
						mu.Unlock()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if commits == 0 {
		t.Fatal("no writer committed")
	}
	if got := committed(m, "x"); got != (adt.Counter{N: hot + int64(commits)}) {
		t.Fatalf("x = %v after %d committed writes from %d", got, commits, hot)
	}
	if x := lockStateOf(m, "x"); x.read != nil {
		t.Fatalf("x keeps read set %v after every transaction ended", x.read.Members())
	}
}

// TestUnpublishedTopLevelWriteIsGone: the root's version is the store's
// latest, so a top-level transaction that commits without publishing what
// it wrote leaves nothing of it behind — no entry in the chain, and no
// memo of the read it made after its write. The next read is answered
// from the store's version. One that published keeps its memo: the
// store's latest is the version the memo was read from.
func TestUnpublishedTopLevelWriteIsGone(t *testing.T) {
	for _, mode := range []core.Mode{core.ReadWrite, core.Exclusive} {
		t.Run(mode.String(), func(t *testing.T) {
			m := memoMgr(t, mode)
			ls := lockStateOf(m, "x")
			expect(t, m, "T0.0", "T0.0.0", "x", adt.CtrAdd{Delta: 1}, int64(hot+1))
			expect(t, m, "T0.0", "T0.0.1", "x", adt.CtrGet{}, int64(hot+1))
			commitTop(m, "T0.0")
			if len(ls.chain) != 0 || ls.memo.op == nil {
				t.Fatalf("after a published commit: chain %+v, memo %v; want no chain and the memo", ls.chain, ls.memo.op)
			}
			expect(t, m, "T0.1", "T0.1.0", "x", adt.CtrAdd{Delta: 1}, int64(hot+2))
			expect(t, m, "T0.1", "T0.1.1", "x", adt.CtrGet{}, int64(hot+2))
			m.Commit("T0.1", nil) // nobody published T0.1's version
			if len(ls.chain) != 0 || ls.memo.op != nil {
				t.Fatalf("after an unpublished commit: chain %+v, memo %v; want neither", ls.chain, ls.memo.op)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			expect(t, m, "T0.2", "T0.2.0", "x", adt.CtrGet{}, int64(hot+1))
			if got := committed(m, "x"); got != (adt.Counter{N: hot + 1}) {
				t.Fatalf("store's latest x = %v, want %d", got, hot+1)
			}
		})
	}
}

// fetchAdd adds Delta and returns the total it found, yet names CtrGet as
// its read-back: a declaration off by Delta, the mistake of a write whose
// value is the old state.
type fetchAdd struct{ Delta int64 }

func (a fetchAdd) Apply(s adt.State) (adt.State, adt.Value) {
	n := s.(adt.Counter).N
	return adt.Counter{N: n + a.Delta}, n
}
func (fetchAdd) ReadOnly() bool   { return false }
func (fetchAdd) String() string   { return "fetch-add" }
func (fetchAdd) ReadBack() adt.Op { return adt.CtrGet{} }

// misreadAdd is CtrAdd naming another type's read as its read-back.
type misreadAdd struct{ adt.CtrAdd }

func (misreadAdd) ReadBack() adt.Op { return adt.AcctBalance{} }
func (misreadAdd) String() string   { return "misread-add" }

// TestWrongReadBackIsCaught: a write op whose declared read-back does not
// read back what it returned leaves a false memo. CheckInvariants applies
// the memo's op to the current version and reports both kinds of lie;
// the lockstep harness, which calls it after every step, fails on the
// write, and on its own finds the read that returns the false value, for
// M(X) applies every read.
func TestWrongReadBackIsCaught(t *testing.T) {
	for _, op := range []adt.Op{fetchAdd{Delta: 1}, misreadAdd{adt.CtrAdd{Delta: 1}}} {
		t.Run(op.String(), func(t *testing.T) {
			m := memoMgr(t, core.ReadWrite)
			if _, err := m.Acquire("T0.0", "", "x", op, nil); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariants(); err == nil {
				t.Fatalf("CheckInvariants passed a memo of %s's wrong read-back", op)
			} else {
				t.Log(err)
			}

			l := newLockstep(t, core.ReadWrite, 1, "x")
			if _, err := l.access("T0.0", "T0.0.0", "x", op); err != nil {
				t.Fatal(err)
			}
			if err := l.check(); err == nil {
				t.Fatalf("the lockstep check passed a memo of %s's wrong read-back", op)
			}
			_, err := l.access("T0.0", "T0.0.1", "x", adt.CtrGet{})
			if _, lies := op.(fetchAdd); lies != (err != nil) {
				t.Fatalf("a read after %s: error %v", op, err)
			}
			if err != nil {
				t.Log(err)
			}
		})
	}
}

package nestedtx

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nestedtx/internal/event"
)

func TestRunCommit(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("r", NewRegister(int64(1)))
	err := m.Run(func(tx *Tx) error {
		v, err := tx.Read("r", RegRead{})
		if err != nil {
			return err
		}
		if v != int64(1) {
			t.Errorf("read %v, want 1", v)
		}
		_, err = tx.Write("r", RegWrite{V: int64(42)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.State("r")
	if err != nil {
		t.Fatal(err)
	}
	if s.(Register).V != int64(42) {
		t.Fatalf("state = %v, want 42", s)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedDuplicateRegisterLeavesSystemTypeAlone: a Register the lock
// manager refuses must not replace the object's initial state in the
// system type, or Verify replays a correct run from the wrong start.
func TestRefusedDuplicateRegisterLeavesSystemTypeAlone(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("x", Counter{N: 5})
	if err := m.Register("x", Counter{N: 99}); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	err := m.Run(func(tx *Tx) error {
		v, err := tx.Read("x", CtrGet{})
		if v != int64(5) {
			t.Errorf("read %v, want 5", v)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := m.State("x"); st.(Counter).N != 5 {
		t.Fatalf("x = %+v, want 5", st)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestNonRecordingManagerKeepsNoSystemType: only Verify and defineAccess,
// both recording-only, read the system type, so a manager that records
// nothing makes none, however much it runs. SystemType still answers
// with an empty one that a caller may fill.
func TestNonRecordingManagerKeepsNoSystemType(t *testing.T) {
	m := NewManager()
	m.MustRegister("x", Counter{})
	if err := m.Run(func(tx *Tx) error { _, err := tx.Write("x", CtrAdd{Delta: 1}); return err }); err != nil {
		t.Fatal(err)
	}
	if m.st != nil {
		t.Fatal("a non-recording manager made a system type")
	}
	st := m.SystemType()
	if objs, accs := st.Objects(), st.Accesses(); len(objs) != 0 || len(accs) != 0 {
		t.Fatalf("a non-recording manager's system type lists objects %v and accesses %v", objs, accs)
	}
	st.DefineObject("x", Counter{})
	if err := st.DefineAccess("T0.0.0", "x", CtrGet{}); err != nil {
		t.Fatalf("the empty system type is not usable: %v", err)
	}
	if objs := m.SystemType().Objects(); len(objs) != 0 {
		t.Fatalf("filling one answer of SystemType reached the next: %v", objs)
	}
}

func TestRunAbortRollsBack(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("r", NewRegister(int64(1)))
	boom := errors.New("boom")
	err := m.Run(func(tx *Tx) error {
		if _, err := tx.Write("r", RegWrite{V: int64(99)}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	s, _ := m.State("r")
	if s.(Register).V != int64(1) {
		t.Fatalf("state = %v, want rollback to 1", s)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSubAbortIsolated(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("a", Account{Balance: 100})
	err := m.Run(func(tx *Tx) error {
		// First subtransaction commits.
		if err := tx.Sub(func(tx *Tx) error {
			_, err := tx.Do("a", AcctDeposit{Amount: 10})
			return err
		}); err != nil {
			return err
		}
		// Second aborts; its withdrawal must roll back.
		suberr := tx.Sub(func(tx *Tx) error {
			if _, err := tx.Do("a", AcctWithdraw{Amount: 60}); err != nil {
				return err
			}
			return errors.New("changed my mind")
		})
		if suberr == nil {
			return errors.New("subtransaction should have failed")
		}
		// Parent sees the committed deposit, not the aborted withdrawal.
		v, err := tx.Do("a", AcctBalance{})
		if err != nil {
			return err
		}
		if v != int64(110) {
			return fmt.Errorf("balance inside parent = %v, want 110", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.State("a")
	if s.(Account).Balance != 110 {
		t.Fatalf("final balance = %v, want 110", s)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSiblings(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("ctr", Counter{})
	err := m.Run(func(tx *Tx) error {
		var hs []*Handle
		for i := 0; i < 8; i++ {
			hs = append(hs, tx.Go(func(tx *Tx) error {
				_, err := tx.Do("ctr", CtrAdd{Delta: 1})
				return err
			}))
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				return err
			}
		}
		v, err := tx.Do("ctr", CtrGet{})
		if err != nil {
			return err
		}
		if v != int64(8) {
			return fmt.Errorf("counter = %v, want 8", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTopLevels(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("ctr", Counter{})
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.Run(func(tx *Tx) error {
				_, err := tx.Do("ctr", CtrAdd{Delta: 1})
				return err
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	s, _ := m.State("ctr")
	if s.(Counter).N != 16 {
		t.Fatalf("counter = %v, want 16", s)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetectedAndVictimized(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("x", NewRegister(int64(0)))
	m.MustRegister("y", NewRegister(int64(0)))
	// Two top-level transactions locking x,y in opposite orders, rendezvous
	// so both hold their first lock before requesting the second.
	barrier := make(chan struct{}, 2)
	rendezvous := func() {
		barrier <- struct{}{}
		for len(barrier) < 2 {
		}
	}
	var wg sync.WaitGroup
	res := make([]error, 2)
	body := func(first, second string) func(*Tx) error {
		return func(tx *Tx) error {
			if _, err := tx.Write(first, RegWrite{V: int64(1)}); err != nil {
				return err
			}
			rendezvous()
			_, err := tx.Write(second, RegWrite{V: int64(2)})
			return err
		}
	}
	wg.Add(2)
	go func() { defer wg.Done(); res[0] = m.Run(body("x", "y")) }()
	go func() { defer wg.Done(); res[1] = m.Run(body("y", "x")) }()
	wg.Wait()
	deadlocks := 0
	for _, err := range res {
		if errors.Is(err, ErrDeadlock) {
			deadlocks++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocks != 1 {
		t.Fatalf("want exactly 1 deadlock victim, got %d (res=%v)", deadlocks, res)
	}
	if m.Stats().Deadlocks == 0 {
		t.Fatal("stats should count the deadlock")
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockVictimNamesItsAccess: a deadlock victim's error names the
// refused access exactly as a recording manager names it, although a
// manager that records nothing never builds access names otherwise.
func TestDeadlockVictimNamesItsAccess(t *testing.T) {
	msgs := map[string]string{}
	for name, opts := range map[string][]Option{"plain": nil, "recording": {WithRecording()}} {
		m := NewManager(append(opts, withLockShards(1))...)
		m.MustRegister("x", Counter{})
		m.MustRegister("y", Counter{})
		// T0.0 writes x (T0.0.0), T0.1 writes y (T0.1.0), and T0.0's
		// access to y (T0.0.1) waits.
		older, newer := m.Begin(), m.Begin()
		if _, err := older.Do("x", CtrAdd{Delta: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := newer.Do("y", CtrAdd{Delta: 1}); err != nil {
			t.Fatal(err)
		}
		blocked := make(chan error, 1)
		go func() { _, err := older.Do("y", CtrAdd{Delta: 1}); blocked <- err }()
		for m.Metrics().QueuedWaiters.Load() == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		// T0.1.1 closes the cycle; newer is the latest sibling among the
		// waiters, so its own access is refused.
		_, err := newer.Do("x", CtrAdd{Delta: 1})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("%s: closing access = %v, want ErrDeadlock", name, err)
		}
		msgs[name] = err.Error()
		newer.Abort()
		if err := <-blocked; err != nil {
			t.Fatal(err)
		}
		if err := older.Commit(); err != nil {
			t.Fatal(err)
		}
		if opts != nil {
			if err := m.Verify(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := "nestedtx: access T0.1.1 on x: "; !strings.HasPrefix(msgs["plain"], want) || msgs["plain"] != msgs["recording"] {
		t.Fatalf("victim errors: plain %q, recording %q; want both %q…", msgs["plain"], msgs["recording"], want)
	}
	// The error also names its witness: the 2-cycle of the two top-level
	// transactions, each waiting for the other.
	_, cycle, _ := strings.Cut(msgs["plain"], ": cycle ")
	if cycle != "T0.0 → T0.1" && cycle != "T0.1 → T0.0" {
		t.Fatalf("victim error %q names cycle %q, want T0.0 and T0.1", msgs["plain"], cycle)
	}
}

func TestPanicAborts(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("r", NewRegister(int64(7)))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic should propagate")
			}
		}()
		_ = m.Run(func(tx *Tx) error {
			if _, err := tx.Write("r", RegWrite{V: int64(0)}); err != nil {
				return err
			}
			panic("kaboom")
		})
	}()
	s, _ := m.State("r")
	if s.(Register).V != int64(7) {
		t.Fatalf("state = %v, want rollback to 7", s)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteGuards(t *testing.T) {
	m := NewManager()
	m.MustRegister("r", NewRegister(int64(0)))
	err := m.Run(func(tx *Tx) error {
		if _, err := tx.Read("r", RegWrite{V: int64(1)}); err == nil {
			return errors.New("Read must reject write ops")
		}
		if _, err := tx.Write("r", RegRead{}); err == nil {
			return errors.New("Write must reject read ops")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRetryAfterDeadlock(t *testing.T) {
	m := NewManager()
	m.MustRegister("x", NewRegister(int64(0)))
	m.MustRegister("y", NewRegister(int64(0)))
	start := make(chan struct{})
	var wg sync.WaitGroup
	res := make([]error, 2)
	body := func(first, second string) func(*Tx) error {
		return func(tx *Tx) error {
			if _, err := tx.Write(first, RegWrite{V: int64(1)}); err != nil {
				return err
			}
			_, err := tx.Write(second, RegWrite{V: int64(2)})
			return err
		}
	}
	wg.Add(2)
	go func() { defer wg.Done(); <-start; res[0] = m.RunRetry(10, body("x", "y")) }()
	go func() { defer wg.Done(); <-start; res[1] = m.RunRetry(10, body("y", "x")) }()
	close(start)
	wg.Wait()
	if res[0] != nil || res[1] != nil {
		t.Fatalf("retries should eventually succeed: %v %v", res, m.Stats())
	}
}

// TestReturnValue: the value a body sets with Return is
// the one its commit reports — to the parent for a subtransaction, to
// the committed state for a top-level one — and a body that never calls
// Return, or last calls it with nil, reports its number of committed
// children.
func TestReturnValue(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("r", NewRegister(int64(5)))
	err := m.Run(func(tx *Tx) error {
		if err := tx.Sub(func(sub *Tx) error {
			v, err := sub.Read("r", RegRead{})
			if err != nil {
				return err
			}
			sub.Return(v)
			return nil
		}); err != nil {
			return err
		}
		if err := tx.Sub(func(sub *Tx) error {
			_, err := sub.Read("r", RegRead{})
			return err
		}); err != nil {
			return err
		}
		if err := tx.Sub(func(sub *Tx) error {
			_, err := sub.Read("r", RegRead{})
			sub.Return("cleared")
			sub.Return(nil)
			return err
		}); err != nil {
			return err
		}
		tx.Return("first")
		tx.Return("top")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Value{"T0.0": "top", "T0.0.0": int64(5), "T0.0.1": int64(1), "T0.0.2": int64(1)}
	for _, e := range m.Schedule() {
		if e.Kind != event.RequestCommit || len(e.T) > len("T0.0.0") {
			continue
		}
		if e.Value != want[string(e.T)] {
			t.Errorf("REQUEST_COMMIT(%s, %v), want value %v", e.T, e.Value, want[string(e.T)])
		}
		delete(want, string(e.T))
	}
	if len(want) != 0 {
		t.Errorf("no REQUEST_COMMIT for %v", want)
	}
}

func TestUnawaitedFailedChildFailsParent(t *testing.T) {
	m := NewManager()
	m.MustRegister("r", NewRegister(int64(0)))
	err := m.Run(func(tx *Tx) error {
		tx.Go(func(tx *Tx) error { return errors.New("child fails") })
		return nil // parent "forgets" to Wait
	})
	if err == nil {
		t.Fatal("parent must not commit over an unobserved child failure")
	}
}

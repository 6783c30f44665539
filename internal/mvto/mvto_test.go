package mvto

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nestedtx/internal/adt"
)

func newMgr(t testing.TB) *Manager {
	t.Helper()
	m := New()
	if err := m.Register("X", adt.NewRegister(int64(0))); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("Y", adt.Counter{}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegisterGuards(t *testing.T) {
	m := newMgr(t)
	if err := m.Register("X", adt.NewRegister(int64(0))); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if _, err := m.CurrentState("zzz"); err == nil {
		t.Fatal("unknown object must fail")
	}
	tx := m.Begin()
	if _, err := tx.Do("zzz", adt.RegRead{}); err == nil {
		t.Fatal("access to unknown object must fail")
	}
	tx.Abort()
}

func TestCommitMakesVisible(t *testing.T) {
	m := newMgr(t)
	t1 := m.Begin()
	if _, err := t1.Write("X", adt.RegWrite{V: int64(7)}); err != nil {
		t.Fatal(err)
	}
	// Own read sees own write.
	v, err := t1.Read("X", adt.RegRead{})
	if err != nil || v != int64(7) {
		t.Fatalf("read own write: %v %v", v, err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	v, err = t2.Read("X", adt.RegRead{})
	if err != nil || v != int64(7) {
		t.Fatalf("committed value: %v %v", v, err)
	}
	t2.Abort()
	s, _ := m.CurrentState("X")
	if s.(adt.Register).V != int64(7) {
		t.Fatal("current state")
	}
	if err := m.VerifySerializable(map[string]adt.State{"X": adt.NewRegister(int64(0)), "Y": adt.Counter{}}); err != nil {
		t.Fatal(err)
	}
}

func TestAbortDiscards(t *testing.T) {
	m := newMgr(t)
	t1 := m.Begin()
	if _, err := t1.Write("X", adt.RegWrite{V: int64(9)}); err != nil {
		t.Fatal(err)
	}
	t1.Abort()
	s, _ := m.CurrentState("X")
	if s.(adt.Register).V != int64(0) {
		t.Fatal("abort must discard the tentative version")
	}
	if _, err := t1.Do("X", adt.RegRead{}); !errors.Is(err, ErrTxDone) {
		t.Fatal("operations after abort must fail")
	}
	if err := t1.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatal("commit after abort must fail")
	}
}

func TestTooLateWrite(t *testing.T) {
	m := newMgr(t)
	early := m.Begin() // ts = 1
	late := m.Begin()  // ts = 2
	// The later transaction reads X (records read of the initial version).
	if _, err := late.Read("X", adt.RegRead{}); err != nil {
		t.Fatal(err)
	}
	// The earlier transaction now tries to write X: rejected.
	_, err := early.Write("X", adt.RegWrite{V: int64(1)})
	if !errors.Is(err, ErrTooLate) {
		t.Fatalf("err = %v, want ErrTooLate", err)
	}
	early.Abort()
	if err := late.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TooLates != 1 {
		t.Fatal("stats")
	}
}

func TestReadersDoNotBlockReaders(t *testing.T) {
	m := newMgr(t)
	t1, t2 := m.Begin(), m.Begin()
	if _, err := t1.Read("X", adt.RegRead{}); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read("X", adt.RegRead{}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Waits != 0 {
		t.Fatal("reads must not wait on each other")
	}
}

func TestReaderWaitsForEarlierTentative(t *testing.T) {
	m := newMgr(t)
	writer := m.Begin() // ts 1
	if _, err := writer.Write("X", adt.RegWrite{V: int64(5)}); err != nil {
		t.Fatal(err)
	}
	reader := m.Begin() // ts 2
	got := make(chan adt.Value, 1)
	go func() {
		v, err := reader.Read("X", adt.RegRead{})
		if err != nil {
			got <- err.Error()
			return
		}
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("reader should wait for the earlier tentative write; got %v", v)
	case <-time.After(30 * time.Millisecond):
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != int64(5) {
			t.Fatalf("reader saw %v, want 5", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader did not wake")
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Waits == 0 {
		t.Fatal("the wait should be counted")
	}
}

func TestReaderSkipsLaterTentative(t *testing.T) {
	m := newMgr(t)
	reader := m.Begin() // ts 1
	writer := m.Begin() // ts 2
	if _, err := writer.Write("X", adt.RegWrite{V: int64(5)}); err != nil {
		t.Fatal(err)
	}
	// The earlier reader must NOT wait for a later tentative version.
	v, err := reader.Read("X", adt.RegRead{})
	if err != nil || v != int64(0) {
		t.Fatalf("reader got %v %v, want initial 0 without waiting", v, err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifySerializable(map[string]adt.State{"X": adt.NewRegister(int64(0)), "Y": adt.Counter{}}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRetriesTooLate(t *testing.T) {
	m := newMgr(t)
	// Force one ErrTooLate, then succeed on retry with a later timestamp.
	victim := m.Begin() // ts 1
	blocker := m.Begin()
	if _, err := blocker.Read("X", adt.RegRead{}); err != nil {
		t.Fatal(err)
	}
	if err := blocker.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Write("X", adt.RegWrite{V: int64(1)}); !errors.Is(err, ErrTooLate) {
		t.Fatal("setup: expected too-late")
	}
	victim.Abort()
	err := m.Run(5, func(tx *Tx) error {
		_, err := tx.Write("X", adt.RegWrite{V: int64(2)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.CurrentState("X")
	if s.(adt.Register).V != int64(2) {
		t.Fatal("retry should have landed the write")
	}
}

// TestRunClampsNonPositiveAttempts: a non-positive attempts runs fn once
// and commits it, like every other runner; Run used to return nil
// without running fn at all.
func TestRunClampsNonPositiveAttempts(t *testing.T) {
	for _, attempts := range []int{0, -1} {
		m := newMgr(t)
		runs := 0
		if err := m.Run(attempts, func(tx *Tx) error {
			runs++
			_, err := tx.Write("Y", adt.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			t.Fatalf("attempts=%d: %v", attempts, err)
		}
		if runs != 1 {
			t.Fatalf("attempts=%d: fn ran %d times, want 1", attempts, runs)
		}
		if s, _ := m.CurrentState("Y"); s.(adt.Counter).N != 1 {
			t.Fatalf("attempts=%d: Y = %v, want 1 (the attempt must commit)", attempts, s)
		}
	}
}

func TestConcurrentStressSerializable(t *testing.T) {
	m := New()
	const objects = 4
	initial := make(map[string]adt.State, objects)
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("o%d", i)
		initial[name] = adt.Counter{}
		if err := m.Register(name, adt.Counter{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var gaveUp int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				err := m.Run(50, func(tx *Tx) error {
					for j := 0; j < 3; j++ {
						obj := fmt.Sprintf("o%d", rng.Intn(objects))
						if rng.Intn(2) == 0 {
							if _, err := tx.Read(obj, adt.CtrGet{}); err != nil {
								return err
							}
						} else if _, err := tx.Write(obj, adt.CtrAdd{Delta: 1}); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					mu.Lock()
					gaveUp++
					mu.Unlock()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if err := m.VerifySerializable(initial); err != nil {
		t.Fatalf("MVTO run not serializable: %v (gave up: %d)", err, gaveUp)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	m := newMgr(t)
	if err := m.Run(3, func(tx *Tx) error {
		_, err := tx.Write("Y", adt.CtrAdd{Delta: 1}) // value depends on prior state
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Verifying against the wrong initial state must fail: the recorded
	// return value (1) cannot be reproduced from a counter starting at 99.
	err := m.VerifySerializable(map[string]adt.State{"X": adt.NewRegister(int64(0)), "Y": adt.Counter{N: 99}})
	if err == nil {
		t.Fatal("verifier must detect a bogus initial state")
	}
}

func TestTimestampsIncrease(t *testing.T) {
	m := newMgr(t)
	a, b := m.Begin(), m.Begin()
	if a.Timestamp() >= b.Timestamp() {
		t.Fatal("timestamps must increase")
	}
	a.Abort()
	b.Abort()
	if s := m.Stats(); s.Begun != 2 || s.Aborts != 2 {
		t.Fatalf("stats %+v", s)
	}
}

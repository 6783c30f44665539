package nestedtx

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRunCtxCancelUnblocksAndRollsBack(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("x", NewRegister(int64(7)))

	// A holder keeps the write lock while we try a second transaction.
	hold := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_ = m.Run(func(tx *Tx) error {
			if _, err := tx.Write("x", RegWrite{V: int64(1)}); err != nil {
				return err
			}
			close(hold)
			<-release
			return errors.New("holder aborts") // roll back to 7
		})
	}()
	<-hold

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- m.RunCtx(ctx, func(tx *Tx) error {
			_, err := tx.Write("x", RegWrite{V: int64(2)}) // blocks on the holder
			return err
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not unblock the transaction")
	}
	close(release)
	// Let the holder finish, then check rollback.
	time.Sleep(20 * time.Millisecond)
	s, _ := m.State("x")
	if s.(Register).V != int64(7) {
		t.Fatalf("state = %v, want 7 (both transactions rolled back)", s)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRunCtxAlreadyCancelled(t *testing.T) {
	m := NewManager()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := m.RunCtx(ctx, func(tx *Tx) error { called = true; return nil })
	if !errors.Is(err, context.Canceled) || called {
		t.Fatalf("err=%v called=%v", err, called)
	}
}

func TestRunCtxCommitsNormally(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("x", Counter{})
	if err := m.RunCtx(context.Background(), func(tx *Tx) error {
		_, err := tx.Do("x", CtrAdd{Delta: 5})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s, _ := m.State("x")
	if s.(Counter).N != 5 {
		t.Fatalf("counter = %v", s)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRunCtxBodyErrorJoined(t *testing.T) {
	m := NewManager()
	m.MustRegister("x", Counter{})
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	err := m.RunCtx(ctx, func(tx *Tx) error {
		cancel()
		time.Sleep(5 * time.Millisecond)
		return boom
	})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want joined Canceled+boom", err)
	}
}

// TestLateContextCancelMissesTheNextTransaction: RunCtx arms a Cancel of
// its transaction for when ctx ends, and that Cancel may run after RunCtx
// has returned, when the next transaction of the same goroutine may hold
// the returned one's state. It finds its transaction returned and does
// nothing: the next transaction commits, each of 10,000 times.
func TestLateContextCancelMissesTheNextTransaction(t *testing.T) {
	m := NewManager()
	m.MustRegister("c", Counter{})
	add := func(tx *Tx) error {
		_, err := tx.Do("c", CtrAdd{Delta: 1})
		return err
	}
	for i := range 10_000 {
		ctx, cancel := context.WithCancel(context.Background())
		_ = m.RunCtx(ctx, func(tx *Tx) error {
			defer cancel() // as the body returns
			return add(tx)
		})
		if err := m.Run(add); err != nil {
			t.Fatalf("transaction %d, right after a cancelled RunCtx: %v", i, err)
		}
	}
}

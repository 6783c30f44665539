package nestedtx

import (
	"context"
	"errors"
	"testing"
	"time"

	"nestedtx/internal/clock"
)

// countingClock counts the backoff waits a retry loop asks for (Sleep in
// RunRetry/SubRetry, NewTimer in RunRetryCtx) without spending them.
type countingClock struct {
	clock.Real
	waits int
}

func (c *countingClock) Sleep(time.Duration) { c.waits++ }
func (c *countingClock) NewTimer(time.Duration) clock.Timer {
	c.waits++
	return c.Real.NewTimer(0)
}

// TestRetryNoBackoffAfterLastAttempt: a body that always deadlocks is
// reported after exactly attempts runs and attempts-1 backoffs — there is
// nothing left to back off for once the budget is spent. RunRetry and
// SubRetry used to sleep once more (up to 3.2ms) before returning.
func TestRetryNoBackoffAfterLastAttempt(t *testing.T) {
	const attempts = 5
	deadlock := func(*Tx) error { return ErrDeadlock }
	loops := map[string]func(m *Manager) error{
		"RunRetry": func(m *Manager) error { return m.RunRetry(attempts, deadlock) },
		"SubRetry": func(m *Manager) error {
			return m.Run(func(tx *Tx) error { return tx.SubRetry(attempts, deadlock) })
		},
		"RunRetryCtx": func(m *Manager) error {
			return m.RunRetryCtx(context.Background(), attempts, deadlock)
		},
	}
	for name, loop := range loops {
		clk := &countingClock{}
		m := NewManager(WithClock(clk))
		if err := loop(m); !errors.Is(err, ErrDeadlock) {
			t.Errorf("%s: err = %v, want ErrDeadlock", name, err)
		}
		if clk.waits != attempts-1 {
			t.Errorf("%s: %d backoffs for %d attempts, want %d", name, clk.waits, attempts, attempts-1)
		}
	}
}

// stalledClock is a clock whose timers never fire; each NewTimer is
// announced on made.
type stalledClock struct {
	clock.Real
	made chan struct{}
}

func (c *stalledClock) NewTimer(time.Duration) clock.Timer {
	select {
	case c.made <- struct{}{}:
	default:
	}
	return stalledTimer{}
}

type stalledTimer struct{}

func (stalledTimer) C() <-chan time.Time { return nil }
func (stalledTimer) Stop() bool          { return true }

// TestRunRetryCtxCancelInterruptsBackoff: a victim waiting out its
// backoff returns as soon as its context is cancelled, with both the
// context's error and the deadlock it was backing off from — even on a
// clock whose timers never fire.
func TestRunRetryCtxCancelInterruptsBackoff(t *testing.T) {
	clk := &stalledClock{made: make(chan struct{}, 1)}
	m := NewManager(WithClock(clk))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runs := 0
	ret := make(chan error, 1)
	go func() {
		ret <- m.RunRetryCtx(ctx, 100, func(*Tx) error { runs++; return ErrDeadlock })
	}()
	<-clk.made // the first backoff has begun
	cancel()
	select {
	case err := <-ret:
		if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrDeadlock) {
			t.Fatalf("err = %v, want context.Canceled joined with ErrDeadlock", err)
		}
		if runs != 1 {
			t.Fatalf("body ran %d times, want 1", runs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelling the context did not end the backoff")
	}
}

// TestBackoffDurBounds pins the waits RunRetry, SubRetry and RunRetryCtx
// take between attempts: clock.Backoff at retryBase is positive, jittered
// below the per-attempt ceiling and saturating at 64*retryBase, and never
// panics for out-of-range attempt counts.
func TestBackoffDurBounds(t *testing.T) {
	cases := []struct {
		attempt int
		ceil    time.Duration
	}{
		{-1, retryBase},
		{0, retryBase},
		{1, 2 * retryBase},
		{2, 4 * retryBase},
		{5, 32 * retryBase},
		{6, 64 * retryBase},
		{7, 64 * retryBase},
		{31, 64 * retryBase},
		{32, 64 * retryBase},
		{63, 64 * retryBase},
		{64, 64 * retryBase},
		{1 << 20, 64 * retryBase},
	}
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			if d := clock.Backoff(c.attempt, retryBase); d <= 0 || d > c.ceil {
				t.Fatalf("clock.Backoff(%d, retryBase) = %v, want in (0, %v]", c.attempt, d, c.ceil)
			}
		}
	}
}

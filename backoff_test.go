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

// TestBackoffDurBounds pins the backoff schedule: positive, jittered
// below the per-attempt ceiling, and saturating — never panicking — for
// out-of-range attempt counts. Before the clamp moved from the shift
// count to the delay, backoffDur(-1) panicked with a negative shift.
func TestBackoffDurBounds(t *testing.T) {
	const base = 50 * time.Microsecond
	cases := []struct {
		attempt int
		ceil    time.Duration
	}{
		{-1, base},
		{0, base},
		{1, 2 * base},
		{2, 4 * base},
		{5, 32 * base},
		{6, 64 * base},
		{7, 64 * base},
		{31, 64 * base},
		{32, 64 * base},
		{63, 64 * base},
		{64, 64 * base},
		{1 << 20, 64 * base},
	}
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			d := backoffDur(c.attempt)
			if d <= 0 {
				t.Fatalf("backoffDur(%d) = %v, want positive", c.attempt, d)
			}
			if d > c.ceil {
				t.Fatalf("backoffDur(%d) = %v, want <= %v", c.attempt, d, c.ceil)
			}
		}
	}
}

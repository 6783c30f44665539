package clock

import (
	"errors"
	"testing"
	"time"
)

// TestRealClockBasics: the production clock delegates to package time.
func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Now().Sub(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("real timer Stop failed")
	}
	select {
	case <-c.NewTimer(0).C():
	case <-time.After(time.Second):
		t.Fatal("NewTimer(0) did not fire promptly")
	}
	if Or(nil) == nil {
		t.Fatal("Or(nil) returned nil")
	}
}

// TestBackoffBounds pins the backoff schedule: positive, jittered below
// the per-attempt ceiling, and saturating — never panicking — for
// out-of-range attempt counts. Before the clamp moved from the shift
// count to the delay, Backoff(-1, base) panicked with a negative shift.
func TestBackoffBounds(t *testing.T) {
	const base = 50 * time.Microsecond
	cases := []struct {
		attempt int
		ceil    time.Duration
	}{
		{-1, base},
		{0, base},
		{1, 2 * base},
		{2, 4 * base},
		{3, 8 * base},
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
			if d := Backoff(c.attempt, base); d <= 0 || d > c.ceil {
				t.Fatalf("Backoff(%d) = %v, want in (0, %v]", c.attempt, d, c.ceil)
			}
		}
	}
}

// countingClock counts the waits asked of it without spending them:
// sleeps return at once, and its timers never fire.
type countingClock struct {
	Real
	sleeps, timers int
}

func (c *countingClock) Sleep(time.Duration) { c.sleeps++ }
func (c *countingClock) NewTimer(time.Duration) Timer {
	c.timers++
	return neverTimer{}
}

type neverTimer struct{}

func (neverTimer) C() <-chan time.Time { return nil }
func (neverTimer) Stop() bool          { return true }

// TestRetryWaitsBetweenAttemptsOnly: a try that always fails runs
// attempts times with attempts-1 waits between them and none after the
// last; a non-positive attempts still runs it once; retryable is never
// asked about the last attempt's error; and a closed done ends the wait
// (on a clock whose timers never fire) and the loop with the last error.
func TestRetryWaitsBetweenAttemptsOnly(t *testing.T) {
	fail := errors.New("fail")
	for _, c := range []struct{ attempts, runs int }{{5, 5}, {1, 1}, {0, 1}, {-3, 1}} {
		clk := &countingClock{}
		runs, asked := 0, 0
		err := Retry(clk, c.attempts, time.Millisecond, nil,
			func(error) bool { asked++; return true },
			func() error { runs++; return fail })
		if !errors.Is(err, fail) {
			t.Fatalf("attempts=%d: err = %v, want the last try's error", c.attempts, err)
		}
		if runs != c.runs || clk.sleeps != c.runs-1 || clk.timers != 0 {
			t.Fatalf("attempts=%d: %d runs, %d sleeps, %d timers; want %d, %d, 0",
				c.attempts, runs, clk.sleeps, clk.timers, c.runs, c.runs-1)
		}
		if asked != c.runs-1 {
			t.Fatalf("attempts=%d: retryable asked %d times, want %d", c.attempts, asked, c.runs-1)
		}
	}

	clk := &countingClock{}
	runs := 0
	if err := Retry(clk, 5, time.Millisecond, nil,
		func(err error) bool { return !errors.Is(err, fail) },
		func() error { runs++; return fail }); !errors.Is(err, fail) || runs != 1 || clk.sleeps != 0 {
		t.Fatalf("unretryable error: err = %v after %d runs and %d sleeps, want it after 1 and 0", err, runs, clk.sleeps)
	}

	done := make(chan struct{})
	close(done)
	clk = &countingClock{}
	runs = 0
	ret := make(chan error, 1)
	go func() {
		ret <- Retry(clk, 5, time.Hour, done, func(error) bool { return true },
			func() error { runs++; return fail })
	}()
	select {
	case err := <-ret:
		if !errors.Is(err, fail) || runs != 1 || clk.timers != 1 || clk.sleeps != 0 {
			t.Fatalf("closed done: err = %v after %d runs, %d timers, %d sleeps; want it after 1, 1, 0",
				err, runs, clk.timers, clk.sleeps)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a closed done did not end the wait")
	}
}

// Package clock is the runtime's time source and its one way to wait and
// retry: the [Clock] interface (Now, Sleep and NewTimer) every
// schedule-relevant sleep, timeout and backoff routes through; [Real],
// the wall clock production code gets by default; [Backoff], the
// jittered delay schedule; [Wait], the one interruptible wait; and
// [Retry], the one retry loop every transaction runner and reconnect
// loop uses.
//
// This package is on the runtime side of the layering line: stdlib only,
// imported by the root nestedtx package, nestedtx/client, internal/wal,
// internal/repl and internal/faultnet, and importing nothing of ours. The
// simulator's event-queue implementation of the interface (Virtual)
// lives above the line, in the simulator's own clock package under
// internal/dst, which imports this package — never the reverse.
package clock

import (
	"math/rand"
	"time"
)

// Clock is the time source the runtime's sleeps and timeouts draw from.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks for d; d <= 0 returns immediately. On a virtual clock
	// the block ends when virtual time reaches the deadline, regardless
	// of wall time.
	Sleep(d time.Duration)
	// NewTimer returns a stoppable timer that fires once after d.
	NewTimer(d time.Duration) Timer
}

// Timer is a stoppable single-shot timer (the subset of *time.Timer the
// runtime needs, so a virtual clock can provide its own).
type Timer interface {
	// C returns the channel the firing is delivered on.
	C() <-chan time.Time
	// Stop cancels the timer; it reports whether the firing was averted.
	Stop() bool
}

// Or returns c, or the real clock when c is nil — the idiom for
// "injected clock, defaulting to production time".
func Or(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}

// Backoff returns the jittered delay before retry number attempt (0 is
// the first): uniform over (0, min(base·2^attempt, 64·base)], so
// competing retriers restart out of phase. The delay — not the shift
// count — is clamped, so out-of-range attempts (negative, or large
// enough to overflow the shift) saturate at the cap instead of
// panicking or going negative.
func Backoff(attempt int, base time.Duration) time.Duration {
	delay := 64 * base // cap after 6 doublings
	if attempt < 0 {
		attempt = 0
	}
	if attempt < 7 {
		delay = base << uint(attempt)
	}
	return time.Duration(rand.Int63n(int64(delay)) + 1)
}

// Wait blocks on c for d, or until done is closed, and reports whether
// it waited the whole d. A nil done never closes: Wait then calls
// c.Sleep and makes no timer.
func Wait(c Clock, d time.Duration, done <-chan struct{}) bool {
	if done == nil {
		c.Sleep(d)
		return true
	}
	t := c.NewTimer(d)
	select {
	case <-t.C():
		return true
	case <-done:
		t.Stop()
		return false
	}
}

// Retry runs try until it succeeds, fails with an error retryable does
// not accept, or attempts are used up, and returns try's last error.
// attempts below 1 are clamped to 1: try always runs at least once.
// retryable is asked only when another attempt remains. Between attempts
// Retry waits Backoff(i, base) on c through [Wait], never after the last
// attempt; a close of done ends the wait and the loop.
func Retry(c Clock, attempts int, base time.Duration, done <-chan struct{}, retryable func(error) bool, try func() error) error {
	for i := 0; ; i++ {
		err := try()
		if err == nil || i+1 >= attempts || !retryable(err) || !Wait(c, Backoff(i, base), done) {
			return err
		}
	}
}

// Real is the production clock: the wall clock, delegating to the time
// package.
type Real struct{}

func (Real) Now() time.Time { return time.Now() }
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.t.C }
func (t realTimer) Stop() bool          { return t.t.Stop() }

package nestedtx

import (
	"context"
	"errors"
	"time"

	"nestedtx/internal/event"
)

// RunCtx is [Manager.Run] with context cancellation: if ctx is cancelled
// while the transaction runs, its blocked accesses unblock with
// [ErrAborted], the transaction aborts and rolls back, and RunCtx returns
// ctx.Err() (joined with the body's error when the body failed for its
// own reasons).
func (m *Manager) RunCtx(ctx context.Context, fn func(*Tx) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	id := m.newTop()
	m.rec.RecordAll(
		event.Event{Kind: event.RequestCreate, T: id},
		event.Event{Kind: event.Create, T: id},
	)
	start := time.Now()
	m.met.Trace(event.Create.String(), string(id), "", 0)
	tx := &Tx{mgr: m, id: id, cancel: make(chan struct{})}

	// Bridge context cancellation to the transaction's abort cascade.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			tx.markAborted()
		case <-stop:
		}
	}()

	err := tx.execute(fn)
	if ctxErr := ctx.Err(); ctxErr != nil {
		err = joinErrs(ctxErr, err)
	}
	if err != nil {
		m.lm.Abort(id)
		d := time.Since(start)
		m.met.ObserveTx(d, false)
		m.met.Trace(event.Abort.String(), string(id), "", d)
		return err
	}
	return m.commitTop(id, tx, start)
}

// RunRetryCtx is [Manager.RunRetry] with context cancellation: each
// attempt runs under [Manager.RunCtx], and — unlike RunRetry — the
// jittered backoff between attempts is interruptible, so a cancelled
// caller never sleeps through a retry window. It returns ctx's error
// (joined with the last attempt's error, if any) when ctx is cancelled,
// and otherwise behaves like RunRetry. attempts values below 1 are
// clamped to 1: fn always executes at least once (unless ctx is already
// cancelled on entry).
func (m *Manager) RunRetryCtx(ctx context.Context, attempts int, fn func(*Tx) error) error {
	attempts = clampAttempts(attempts)
	var err error
	for i := 0; i < attempts; i++ {
		err = m.RunCtx(ctx, fn)
		if !errors.Is(err, ErrDeadlock) {
			return err
		}
		if i+1 == attempts {
			break
		}
		t := m.clk.NewTimer(backoffDur(i))
		select {
		case <-ctx.Done():
			t.Stop()
			return joinErrs(ctx.Err(), err)
		case <-t.C():
		}
	}
	return err
}

// joinErrs merges a context error with the body's error, dropping the
// redundant ErrAborted that cancellation itself induced.
func joinErrs(a, b error) error {
	if b == nil || errors.Is(b, ErrAborted) {
		return a
	}
	return errors.Join(a, b)
}

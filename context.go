package nestedtx

import (
	"context"
	"errors"

	"nestedtx/internal/clock"
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
	tx := m.Begin()
	// The stop function does not wait for a Cancel already started, so
	// one may run after RunCtx has returned: it finds tx returned and does
	// nothing, whichever transaction holds tx's state by then.
	defer context.AfterFunc(ctx, tx.Cancel)()
	err := tx.run(func(tx *Tx) error {
		err := fn(tx)
		if err == nil && ctx.Err() != nil {
			err = ErrAborted // cancelled: do not let Commit race tx.Cancel
		}
		return err
	})
	if ctxErr := ctx.Err(); ctxErr != nil && err != nil {
		err = joinErrs(ctxErr, err)
	}
	return err
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
	err := clock.Retry(m.clk, attempts, retryBase, ctx.Done(), isDeadlock, func() error { return m.RunCtx(ctx, fn) })
	if ctxErr := ctx.Err(); ctxErr != nil && err != nil && !errors.Is(err, ctxErr) {
		err = joinErrs(ctxErr, err) // ctx ended a backoff, or ended after the last attempt
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

package nestedtx

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nestedtx/internal/event"
	"nestedtx/internal/tree"
	"nestedtx/internal/wal"
)

// Tx is a live transaction. A Tx is created by [Manager.Run], [Tx.Sub] or
// [Tx.Go] and is valid only until its body function returns. The methods
// of a Tx may be called from the goroutine running its body; concurrency
// inside a transaction is expressed by spawning subtransactions with
// [Tx.Go], each of which gets its own Tx.
type Tx struct {
	mgr *Manager
	id  tree.TID

	// cancel closes when the transaction is aborted from outside (an
	// ancestor aborted); blocked accesses unblock with ErrAborted.
	cancel chan struct{}

	mu        sync.Mutex
	nextChild int
	handles   []*Handle
	children  []*Tx // live child transactions (for cascading cancel)
	done      bool
	aborted   bool
	value     Value // optional user result, set by Return
	committed int64 // committed children count (default commit value)
	// effects accumulates the transaction's surviving accesses (its own
	// plus those inherited from committed children, in commit order) for
	// the WAL redo record. Only maintained on durable managers; an
	// aborted subtree's effects are simply dropped with the subtree.
	effects []wal.Effect
}

// ID returns the transaction's name in the paper's tree notation (e.g.
// "T0.2.1").
func (tx *Tx) ID() string { return string(tx.id) }

// Depth returns the nesting depth (top-level transactions have depth 1).
func (tx *Tx) Depth() int { return tx.id.Level() }

// Return sets the transaction's commit value, reported to its parent. If
// never called, the value is the number of committed children.
func (tx *Tx) Return(v Value) {
	tx.mu.Lock()
	tx.value = v
	tx.mu.Unlock()
}

func (tx *Tx) result() Value {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.value != nil {
		return tx.value
	}
	return tx.committed
}

// newChild mints the next child name, refusing when tx can no longer
// start one.
func (tx *Tx) newChild() (tree.TID, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.aborted {
		return "", ErrAborted
	}
	if tx.done {
		return "", ErrDone
	}
	c := tx.id.Child(tx.nextChild)
	tx.nextChild++
	return c, nil
}

// Do performs op on the named object as an access subtransaction, taking a
// read or write lock according to op.ReadOnly(), blocking until Moss'
// locking rule admits it. On success the access has committed and its lock
// is held by tx. Naming an unregistered object fails with an error
// wrapping [ErrUnknownObject] and leaves tx usable.
func (tx *Tx) Do(obj string, op Op) (Value, error) {
	a, err := tx.newChild()
	if err != nil {
		return nil, err
	}
	m := tx.mgr
	if m.rec != nil {
		if err := m.defineAccess(a, obj, op); err != nil {
			return nil, fmt.Errorf("nestedtx: access %s on %s: %w", a, obj, err)
		}
		m.rec.RecordAll(
			event.Event{Kind: event.RequestCreate, T: a},
			event.Event{Kind: event.Create, T: a},
		)
	}
	start := time.Now()
	v, err := m.lm.Acquire(tx.id, a, obj, op, tx.cancel)
	m.met.ObserveOp(time.Since(start))
	if err != nil {
		// The access never responded; the scheduler aborts it.
		m.rec.RecordAll(
			event.Event{Kind: event.Abort, T: a},
			event.Event{Kind: event.ReportAbort, T: a},
		)
		if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrUnknownObject) {
			return nil, fmt.Errorf("nestedtx: access %s on %s: %w", a, obj, err)
		}
		return nil, ErrAborted
	}
	tx.mu.Lock()
	tx.committed++
	if m.wal != nil {
		tx.effects = append(tx.effects, wal.Effect{Obj: obj, Op: op, Val: v})
	}
	tx.mu.Unlock()
	return v, nil
}

// Read performs a read-only op; it errors if op is not read-only — a
// guard for callers who want the compiler-invisible read/write contract
// checked at run time.
func (tx *Tx) Read(obj string, op Op) (Value, error) {
	if !op.ReadOnly() {
		return nil, fmt.Errorf("nestedtx: Read with non-read-only op %s", op)
	}
	return tx.Do(obj, op)
}

// Write performs a mutating op; it errors if op is read-only.
func (tx *Tx) Write(obj string, op Op) (Value, error) {
	if op.ReadOnly() {
		return nil, fmt.Errorf("nestedtx: Write with read-only op %s", op)
	}
	return tx.Do(obj, op)
}

// Sub runs fn as a subtransaction and waits for it. A nil return commits
// the child (its locks and versions pass to tx); an error aborts it,
// rolling back its effects — tx may continue, retry, or propagate the
// error.
func (tx *Tx) Sub(fn func(*Tx) error) error {
	c, err := tx.newChild()
	if err != nil {
		return err
	}
	return tx.runChild(c, fn)
}

// SubRetry is Sub, retrying up to attempts times while fn fails with
// ErrDeadlock, with jittered exponential backoff between attempts.
// attempts values below 1 are clamped to 1: fn always executes at least
// once.
func (tx *Tx) SubRetry(attempts int, fn func(*Tx) error) error {
	attempts = clampAttempts(attempts)
	var err error
	for i := 0; i < attempts; i++ {
		err = tx.Sub(fn)
		if !errors.Is(err, ErrDeadlock) {
			return err
		}
		if i+1 == attempts {
			break
		}
		tx.mgr.clk.Sleep(backoffDur(i))
	}
	return err
}

// clampAttempts normalises a retry budget: a non-positive attempts would
// silently skip the body and report success for a transaction that never
// executed, so every retry entry point runs at least one attempt.
func clampAttempts(attempts int) int {
	if attempts < 1 {
		return 1
	}
	return attempts
}

// backoffDur returns the jittered backoff interval after the attempt'th
// deadlock: uniform over (0, min(50µs·2^attempt, 3.2ms)]. The delay —
// not the shift count — is clamped, so out-of-range attempts (negative,
// or ≥ 64 where the shift itself would overflow) saturate at the cap
// instead of panicking or going negative.
func backoffDur(attempt int) time.Duration {
	const (
		base     = 50 * time.Microsecond
		maxDelay = 64 * base // cap after 6 doublings
	)
	delay := maxDelay
	if attempt < 0 {
		attempt = 0
	}
	if attempt < 7 {
		delay = base << uint(attempt)
	}
	return time.Duration(rand.Int63n(int64(delay)) + 1)
}

// Handle is a concurrent subtransaction started by [Tx.Go].
type Handle struct {
	id       tree.TID
	done     chan struct{}
	err      error
	observed atomic.Bool
}

// Wait blocks until the subtransaction returns and reports whether it
// committed (nil) or aborted (its error). Waiting (from the transaction
// body) marks the outcome observed: a child failure the body saw — and
// chose to tolerate — does not fail the parent.
func (h *Handle) Wait() error {
	h.observed.Store(true)
	<-h.done
	return h.err
}

// ID returns the subtransaction's name.
func (h *Handle) ID() string { return string(h.id) }

// Go starts fn as a concurrent subtransaction — a sibling running in its
// own goroutine — and returns a Handle to await it. The parent's commit
// waits for all spawned subtransactions, so an un-Waited Handle cannot
// outlive its parent.
func (tx *Tx) Go(fn func(*Tx) error) *Handle {
	h := &Handle{done: make(chan struct{})}
	c, err := tx.newChild()
	if err != nil {
		h.id = tx.id
		h.err = err
		close(h.done)
		return h
	}
	h.id = c
	tx.mu.Lock()
	tx.handles = append(tx.handles, h)
	tx.mu.Unlock()
	go func() {
		defer close(h.done)
		h.err = tx.runChild(c, fn)
	}()
	return h
}

// runChild creates, executes and returns child transaction c.
func (tx *Tx) runChild(c tree.TID, fn func(*Tx) error) error {
	tx.mgr.rec.RecordAll(
		event.Event{Kind: event.RequestCreate, T: c},
		event.Event{Kind: event.Create, T: c},
	)
	tx.mgr.met.Trace(event.Create.String(), string(c), "", 0)
	start := time.Now()
	child := &Tx{mgr: tx.mgr, id: c, cancel: make(chan struct{})}
	tx.mu.Lock()
	tx.children = append(tx.children, child)
	tx.mu.Unlock()
	err := child.execute(fn)
	if err != nil {
		tx.mgr.lm.Abort(c)
		tx.mgr.met.Trace(event.Abort.String(), string(c), "", time.Since(start))
		return err
	}
	v := child.result()
	if tx.mgr.wal != nil {
		// Inherit the child's surviving effects *before* releasing its
		// locks: once lm.Commit runs, a conflicting sibling access can be
		// granted and appended after us, so merging first is what keeps
		// the parent's effect order aligned with the per-object grant
		// order (the WAL's serial-correctness argument rests on this).
		tx.mu.Lock()
		tx.effects = append(tx.effects, child.effects...)
		tx.mu.Unlock()
	}
	tx.mgr.rec.Record(event.Event{Kind: event.RequestCommit, T: c, Value: v})
	tx.mgr.lm.Commit(c, v)
	tx.mgr.met.Trace(event.Commit.String(), string(c), "", time.Since(start))
	tx.mu.Lock()
	tx.committed++
	tx.mu.Unlock()
	return nil
}

// takeEffects transfers ownership of the accumulated effect list to the
// caller (the top-level durable commit).
func (tx *Tx) takeEffects() []wal.Effect {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	e := tx.effects
	tx.effects = nil
	return e
}

// execute runs the body, waits for spawned subtransactions, and leaves the
// Tx finished. It returns the error that should abort the transaction, or
// nil to commit. Panics abort and re-panic.
func (tx *Tx) execute(fn func(*Tx) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			tx.finish(fmt.Errorf("panic: %v", r))
			err = fmt.Errorf("nestedtx: transaction %s panicked: %v", tx.id, r)
			tx.mgr.lm.Abort(tx.id)
			panic(r)
		}
	}()
	err = fn(tx)
	return tx.finish(err)
}

// finish waits for outstanding children (cancelling them first when
// aborting) and marks the Tx done.
func (tx *Tx) finish(err error) error {
	tx.mu.Lock()
	handles := tx.handles
	children := tx.children
	tx.mu.Unlock()
	if err != nil {
		// Aborting: unblock descendants waiting on locks.
		for _, c := range children {
			c.markAborted()
		}
	}
	for _, h := range handles {
		<-h.done
		if err == nil && h.err != nil && !h.observed.Load() {
			// A spawned subtransaction that failed and was never Waited:
			// surface the failure rather than silently committing around
			// an unobserved abort.
			err = fmt.Errorf("nestedtx: unawaited subtransaction %s failed: %w", h.id, h.err)
		}
	}
	tx.mu.Lock()
	tx.done = true
	if err != nil {
		tx.aborted = true
	}
	tx.mu.Unlock()
	return err
}

// markAborted cascades an abort signal down the live subtree.
func (tx *Tx) markAborted() {
	tx.mu.Lock()
	if tx.aborted {
		tx.mu.Unlock()
		return
	}
	tx.aborted = true
	children := tx.children
	select {
	case <-tx.cancel:
	default:
		close(tx.cancel)
	}
	tx.mu.Unlock()
	for _, c := range children {
		c.markAborted()
	}
}

package nestedtx

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"nestedtx/internal/clock"
	"nestedtx/internal/event"
	"nestedtx/internal/slab"
	"nestedtx/internal/tree"
	"nestedtx/internal/wal"
)

// Tx is a live transaction: [Manager.Begin] or [Tx.Begin] creates it,
// [Tx.Commit] or [Tx.Abort] returns it — the paper's REQUEST_CREATE/CREATE
// and REQUEST_COMMIT/COMMIT or ABORT. [Manager.Run], [Tx.Sub] and [Tx.Go]
// wrap that life cycle around a body function. Apart from [Tx.Cancel], a
// Tx belongs to one goroutine at a time; concurrency inside a transaction
// is expressed by spawning subtransactions with [Tx.Go], each of which
// gets its own Tx.
type Tx struct {
	mgr    *Manager
	parent *Tx      // nil for a top-level transaction
	id     tree.TID // in name when it fits (see Manager.begin)

	// cancel closes when the transaction is aborted from outside (Cancel,
	// or an ancestor aborting); blocked accesses unblock with ErrAborted.
	// Only a blocked access asks for it (see txDone), so it is made then,
	// under mu, and a transaction that never waits has none.
	cancel chan struct{}
	// start is the creation time as an offset from epoch: 8 bytes where a
	// time.Time is 24. Every field costs its bytes in each slot of a
	// chunk (see txChunk).
	start time.Duration

	mu sync.Mutex
	// handles is the newest Go child whose outcome end still has to see,
	// linked to older ones through Handle.older; a committed child
	// unlinks itself, so what stays is what failed.
	handles *Handle
	// children is the newest open child transaction; each open child's
	// older and newer link it to its open siblings, under the parent's mu.
	// Cancel cascades along the list oldest first, end aborts it newest
	// first, and a child that returns unlinks itself in place.
	children     *Tx
	older, newer *Tx
	value        *Value // optional user result, set by Return
	committed    int64  // committed children count (default commit value)
	// effects accumulates the transaction's surviving accesses (its own
	// plus those inherited from committed children, in commit order) for
	// the WAL redo record, on durable managers only: a pooled list taken at
	// the first effect, which passes to the parent or back to the pool.
	effects   *[]wal.Effect
	nextChild int32
	done      bool // returned: committed or aborted
	aborted   bool // cancelled; all that is left is to abort
	name      [16]byte
}

// epoch anchors every Tx.start on the monotonic clock.
var epoch = time.Now()

// ID returns the transaction's name in the paper's tree notation (e.g.
// "T0.2.1").
func (tx *Tx) ID() string { return string(tx.id) }

// Depth returns the nesting depth (top-level transactions have depth 1).
func (tx *Tx) Depth() int { return tx.id.Level() }

// Return sets the transaction's commit value, reported to its parent. If
// never called, or last called with nil, the value is the number of
// committed children.
func (tx *Tx) Return(v Value) {
	var box *Value
	if v != nil {
		box = &v
	}
	tx.mu.Lock()
	tx.value = box
	tx.mu.Unlock()
}

// takeResult returns tx's commit value for its parent (or the committed
// state) and drops tx's hold on the boxed one: a returned Tx keeps
// nothing its chunk-mates' names would pin.
func (tx *Tx) takeResult() Value {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if box := tx.value; box != nil {
		tx.value = nil
		return *box
	}
	return tx.committed
}

// newChild takes the next child index, refusing when tx can no longer
// start a child. Accesses and subtransactions share the numbering, so
// every name is the one a recording manager would mint, whether or not
// the child's name is ever built. The caller holds tx.mu.
func (tx *Tx) newChild() (int, error) {
	if tx.done {
		return 0, ErrDone
	}
	if tx.aborted {
		return 0, ErrAborted
	}
	k := int(tx.nextChild)
	tx.nextChild++
	return k, nil
}

// closedDone is what txDone hands an access of a transaction already
// cancelled: one closed channel for all of them.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// txDone is a Tx as the lock manager's cancel. The lock manager asks for
// the channel only when an access blocks, and it is made then.
type txDone Tx

func (d *txDone) Done() <-chan struct{} {
	tx := (*Tx)(d)
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.aborted {
		return closedDone
	}
	if tx.cancel == nil {
		tx.cancel = make(chan struct{})
	}
	return tx.cancel
}

// Do performs op on the named object as an access subtransaction, taking a
// read or write lock according to op.ReadOnly(), blocking until Moss'
// locking rule admits it. On success the access has committed and its lock
// is held by tx. Naming an unregistered object fails with an error
// wrapping [ErrUnknownObject] and leaves tx usable.
func (tx *Tx) Do(obj string, op Op) (Value, error) {
	tx.mu.Lock()
	k, err := tx.newChild()
	tx.mu.Unlock()
	if err != nil {
		return nil, err
	}
	m := tx.mgr
	// The access is named for the recorder and for an error that prints
	// it; the lock manager decides on tx (see lockmgr.Manager.Acquire).
	var a tree.TID
	if m.rec != nil {
		a = tx.id.Child(k)
		if err := m.defineAccess(a, obj, op); err != nil {
			return nil, fmt.Errorf("nestedtx: access %s on %s: %w", a, obj, err)
		}
		m.rec.RecordAll(
			event.Event{Kind: event.RequestCreate, T: a},
			event.Event{Kind: event.Create, T: a},
		)
	}
	start := time.Now()
	v, err := m.lm.Acquire(tx.id, a, obj, op, (*txDone)(tx))
	m.met.OpLatency.Observe(time.Since(start))
	if err != nil {
		// The access never responded; the scheduler aborts it.
		m.rec.RecordAll(
			event.Event{Kind: event.Abort, T: a},
			event.Event{Kind: event.ReportAbort, T: a},
		)
		if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrUnknownObject) {
			return nil, fmt.Errorf("nestedtx: access %s on %s: %w", tx.id.Child(k), obj, err)
		}
		return nil, ErrAborted
	}
	tx.mu.Lock()
	tx.committed++
	if m.wal != nil {
		if tx.effects == nil {
			tx.effects = effectLists.Get().(*[]wal.Effect)
		}
		*tx.effects = append(*tx.effects, wal.Effect{Obj: obj, Op: op, Val: v})
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
	c, err := tx.Begin()
	if err != nil {
		return err
	}
	return c.run(fn)
}

// SubRetry is Sub, retrying up to attempts times while fn fails with
// ErrDeadlock, with jittered exponential backoff between attempts.
// attempts values below 1 are clamped to 1: fn always executes at least
// once.
func (tx *Tx) SubRetry(attempts int, fn func(*Tx) error) error {
	return tx.mgr.retry(attempts, func() error { return tx.Sub(fn) })
}

// retry runs try until it stops failing with ErrDeadlock or attempts are
// used up, sleeping a jittered backoff in between. It tries at least
// once: a non-positive attempts must not report success for a
// transaction that never executed.
func (m *Manager) retry(attempts int, try func() error) error {
	for i := 0; ; i++ {
		err := try()
		if !errors.Is(err, ErrDeadlock) || i+1 >= attempts {
			return err
		}
		m.clk.Sleep(backoffDur(i))
	}
}

// backoffDur returns the jittered backoff interval after the attempt'th
// deadlock: uniform over (0, min(50µs·2^attempt, 3.2ms)].
func backoffDur(attempt int) time.Duration {
	return clock.Backoff(attempt, 50*time.Microsecond)
}

// Handle is a concurrent subtransaction started by [Tx.Go].
type Handle struct {
	id       tree.TID
	done     chan struct{}
	err      error
	observed atomic.Bool
	older    *Handle // next on the parent's list, under its mu
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
	c, err := tx.Begin()
	if err != nil {
		h.id = tx.id
		h.err = err
		close(h.done)
		return h
	}
	h.id = c.id
	tx.mu.Lock()
	h.older, tx.handles = tx.handles, h
	tx.mu.Unlock()
	go func() {
		defer close(h.done)
		if h.err = c.run(fn); h.err == nil {
			// A committed child owes its parent's finish nothing. The
			// scan starts at the newest, the usual one out.
			tx.mu.Lock()
			p := &tx.handles
			for *p != h {
				p = &(*p).older
			}
			*p = h.older
			tx.mu.Unlock()
		}
	}()
	return h
}

// txChunk is the number of Tx in one slab chunk: as many as fill the
// allocator's 2,048-byte size class.
const txChunk = slab.ChunkBytes / int(unsafe.Sizeof(Tx{}))

// begin creates transaction pid.k under parent (nil for top level):
// REQUEST_CREATE and CREATE. The caller holds parent.mu. Every Tx, top
// level or child, is a slot cut from a shared chunk of txChunk, one
// allocation per chunk; its chunk-mates are whatever transactions of m
// began next to it, related or not. The Tx and its name are one slot: the
// name is appended into tx.name, and only a name longer than that spills
// to an array of its own, as pid.Child(k) would allocate it.
//
// tx.id aliases those bytes, which is safe because they never change
// under it: they are written here, once, before tx.id exists; a slot is
// never reused; and vet's copylocks check (Tx holds a sync.Mutex)
// forbids copying one. Every copy of the name points into the chunk, so
// the collector keeps the whole chunk alive for as long as any copy is
// reachable. That is 2 KiB and little more: end leaves a returned Tx
// pointing at no other Tx and holding no result; only the Handles of Go
// children that failed unawaited stay, with their names.
func (m *Manager) begin(parent *Tx, pid tree.TID, k int) *Tx {
	s, _ := m.txSlabs.Get().(*slab.Slab[Tx])
	if s == nil {
		s = new(slab.Slab[Tx])
	}
	tx := s.New(txChunk)
	m.txSlabs.Put(s)
	tx.mgr, tx.parent, tx.start = m, parent, time.Since(epoch)
	b := tree.AppendChild(tx.name[:0], pid, k)
	tx.id = tree.TID(unsafe.String(unsafe.SliceData(b), len(b)))
	m.rec.RecordAll(
		event.Event{Kind: event.RequestCreate, T: tx.id},
		event.Event{Kind: event.Create, T: tx.id},
	)
	m.met.Trace(event.Create.String(), string(tx.id), "", 0)
	return tx
}

// Begin creates a subtransaction of tx and returns it open; the caller
// owes it exactly one [Tx.Commit] or [Tx.Abort], and tx cannot commit
// before that. [Tx.Sub] is Begin, a body, and that return.
func (tx *Tx) Begin() (*Tx, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	k, err := tx.newChild()
	if err != nil {
		return nil, err
	}
	c := tx.mgr.begin(tx, tx.id, k)
	if c.older = tx.children; c.older != nil {
		c.older.newer = c
	}
	tx.children = c
	return c, nil
}

// unlinkChild takes returned child c off tx's list of open children. The
// caller holds tx.mu.
func (tx *Tx) unlinkChild(c *Tx) {
	if c.newer != nil {
		c.newer.older = c.older
	} else {
		tx.children = c.older
	}
	if c.older != nil {
		c.older.newer = c.newer
	}
	c.older, c.newer = nil, nil
}

// oldestChild returns tx's oldest open child, nil when it has none. The
// caller holds tx.mu.
func (tx *Tx) oldestChild() *Tx {
	c := tx.children
	for c != nil && c.older != nil {
		c = c.older
	}
	return c
}

// Commit returns tx committed: a subtransaction's locks, versions and
// effects pass to its parent, a top-level transaction's become the
// committed state (durably, on a durable manager). It first waits for
// subtransactions spawned with [Tx.Go]. Commit refuses, leaving
// everything open, while a subtransaction from [Tx.Begin] is still open.
// A cancelled tx, one with an unawaited failed Go child, or one whose
// commit record cannot be logged is aborted instead and the reason
// returned; a storage fault after the record was staged is the
// [ErrNotDurable] outcome, neither; a tx already returned yields [ErrDone].
func (tx *Tx) Commit() error { return tx.end(true) }

// Abort returns tx aborted: every effect of it and its descendants is
// rolled back, subtransactions still open are aborted first (innermost
// first), and its parent may carry on. On a tx already returned it does
// nothing.
func (tx *Tx) Abort() { tx.end(false) }

// Cancel dooms tx from any goroutine: accesses blocked anywhere in its
// live subtree unblock with [ErrAborted], nothing below it can start, and
// all its owner can still do is abort it (Commit does so itself).
func (tx *Tx) Cancel() {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.aborted {
		return
	}
	tx.aborted = true
	if tx.cancel != nil {
		close(tx.cancel)
	}
	// Parent before child is the one lock order, so the cascade may hold
	// tx.mu across it; a child returning meanwhile waits to unlink.
	for c := tx.oldestChild(); c != nil; c = c.newer {
		c.Cancel()
	}
}

// run executes fn as tx's body and returns tx: committed when fn returns
// nil, aborted when it fails or panics (the panic continues).
func (tx *Tx) run(fn func(*Tx) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			tx.Abort()
			panic(r)
		}
	}()
	if err = fn(tx); err == nil {
		err = tx.Commit()
	}
	if err != nil {
		tx.Abort() // nothing left to do if Commit already aborted it
	}
	return err
}

// end is the one way a transaction returns. It settles the subtree —
// Go children are awaited (cancelled first when aborting), children left
// open are aborted on the abort path and refuse the commit otherwise —
// then commits tx to its parent (through commitTop at top level) or
// aborts it, and unlinks it from its parent.
func (tx *Tx) end(commit bool) error {
	err := tx.settle(commit)
	tx.mu.Lock()
	switch {
	case tx.done:
		tx.mu.Unlock()
		return ErrDone
	case commit && tx.children != nil:
		open := tx.oldestChild().id
		tx.mu.Unlock()
		return fmt.Errorf("nestedtx: commit of %s with subtransaction %s still open", tx.id, open)
	case commit && err == nil && tx.aborted:
		err = ErrAborted
	}
	// newChild refuses from here on. A returned Tx points at no other
	// Tx (see Manager.begin): the parent is read for the last time here,
	// and a result is dropped unless the commit below takes it.
	tx.done = true
	m, p := tx.mgr, tx.parent
	tx.parent = nil
	if !commit || err != nil {
		tx.value = nil
	}
	tx.mu.Unlock()

	released := false // committed in the lock manager, whatever err says
	if commit && err == nil {
		if p == nil {
			if err = m.commitTop(tx); err != nil {
				released = errors.Is(err, ErrNotDurable)
			}
		} else {
			tx.commitTo(p)
		}
	}
	d := time.Since(epoch) - tx.start
	kind := event.Commit
	if (!commit || err != nil) && !released {
		kind = event.Abort
		m.lm.Abort(tx.id)
		putEffects(tx.takeEffects())
	}
	if p == nil {
		// A released-but-not-durable commit was not acknowledged: the
		// metrics, like the server's counters, file it under aborts.
		m.met.ObserveTx(d, commit && err == nil)
	}
	m.met.Trace(kind.String(), string(tx.id), "", d)
	if p != nil {
		p.mu.Lock()
		p.unlinkChild(tx)
		if kind == event.Commit {
			p.committed++
		}
		p.mu.Unlock()
	}
	return err
}

// settle brings tx's subtree to rest ahead of tx's own return and reports
// what should stop a commit: a spawned subtransaction that failed and was
// never Waited is surfaced rather than silently committed around.
func (tx *Tx) settle(commit bool) (err error) {
	if !commit {
		tx.Cancel() // unblock descendants waiting on locks
	}
	// The walk goes newest to oldest, so the failure reported is the
	// oldest. A child unlinked meanwhile keeps its older link, so the
	// walk misses none of the list.
	tx.mu.Lock()
	for h := tx.handles; h != nil; h = h.older {
		tx.mu.Unlock()
		<-h.done
		if h.err != nil && !h.observed.Load() {
			err = fmt.Errorf("nestedtx: unawaited subtransaction %s failed: %w", h.id, h.err)
		}
		tx.mu.Lock()
	}
	tx.mu.Unlock()
	for !commit {
		tx.mu.Lock()
		c := tx.children
		tx.mu.Unlock()
		if c == nil {
			break
		}
		c.Abort()
	}
	return err
}

// commitTo returns child tx committed to its parent p.
func (tx *Tx) commitTo(p *Tx) {
	m := tx.mgr
	v := tx.takeResult()
	if m.wal != nil {
		// Inherit the child's surviving effects *before* releasing its
		// locks: once lm.Commit runs, a conflicting sibling access can be
		// granted and appended after us, so merging first is what keeps
		// the parent's effect order aligned with the per-object grant
		// order (the WAL's serial-correctness argument rests on this).
		e := tx.takeEffects()
		p.mu.Lock()
		if p.effects == nil {
			p.effects, e = e, nil
		} else if e != nil {
			*p.effects = append(*p.effects, *e...)
		}
		p.mu.Unlock()
		putEffects(e)
	}
	m.rec.Record(event.Event{Kind: event.RequestCommit, T: tx.id, Value: v})
	m.lm.Commit(tx.id, v)
}

// takeEffects transfers ownership of the accumulated effect list, nil
// when there is none, to the caller.
func (tx *Tx) takeEffects() *[]wal.Effect {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	e := tx.effects
	tx.effects = nil
	return e
}

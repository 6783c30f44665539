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
//
// A Tx is the transaction's name and a pointer to its state: the name
// outlives the transaction, the state goes back to the manager when the
// transaction returns (see Manager.begin).
type Tx struct {
	id   tree.TID // in name when it fits (see Manager.begin)
	name [16]byte
	// st is the transaction's state while it is live, nil once it has
	// returned. A state is reused, so a method reaches it through lock.
	st atomic.Pointer[txState]
}

// txState is what a live transaction keeps beside its name. It is
// recycled: end clears it and gives it back, and Manager.begin hands it
// to a new Tx. owner says whose it is, so a call on a returned Tx never
// reaches the state's next owner.
type txState struct {
	mu sync.Mutex
	// txs is the slab the transaction's children are cut from, under mu
	// (a top-level transaction is cut from its own; see Manager.begin).
	txs slab.Slab[Tx]
	// spare is a cleared state one of this one's children gave back, for
	// its next child, with the spare it holds in turn: a tree run with Sub
	// reuses, level by level, the states and slabs of the one before it.
	// Under the mu of whichever state holds it.
	spare *txState
	txFields
}

// txFields is a txState less its mutex, so that end can clear it with the
// mutex held.
type txFields struct {
	owner  *Tx // the Tx whose state this is; nil while it is free
	mgr    *Manager
	parent *Tx // nil for a top-level transaction

	// cancel closes when the transaction is aborted from outside (Cancel,
	// or an ancestor aborting); blocked accesses unblock with ErrAborted.
	// Only a blocked access asks for it (see txDone), so it is made then,
	// under mu, and a transaction that never waits has none.
	cancel chan struct{}
	// start is the creation time as an offset from epoch.
	start time.Duration

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
}

// lock returns tx's state locked, or nil when tx has returned: the state
// is then free or another transaction's, and tx may not touch it.
func (tx *Tx) lock() *txState {
	s := tx.st.Load()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.owner != tx {
		s.mu.Unlock()
		return nil
	}
	return s
}

// state returns tx's state unchecked, for a caller that knows tx is live:
// the parent of a transaction still linked to it, or an open child while
// its parent's mu is held. Neither can return before that changes.
func (tx *Tx) state() *txState { return tx.st.Load() }

// epoch anchors every transaction's start on the monotonic clock.
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
	if s := tx.lock(); s != nil {
		s.value = box
		s.mu.Unlock()
	}
}

// takeResult returns the commit value for the parent (or the committed
// state).
func (s *txState) takeResult() Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	if box := s.value; box != nil {
		s.value = nil
		return *box
	}
	return s.committed
}

// newChild takes the next child index, refusing when the transaction can
// no longer start a child. Accesses and subtransactions share the
// numbering, so every name is the one a recording manager would mint,
// whether or not the child's name is ever built. The caller holds s.mu.
func (s *txState) newChild() (int, error) {
	if s.done {
		return 0, ErrDone
	}
	if s.aborted {
		return 0, ErrAborted
	}
	k := int(s.nextChild)
	s.nextChild++
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
// the channel only when an access blocks, and it is made then. A
// transaction that has returned counts as cancelled.
type txDone Tx

func (d *txDone) Done() <-chan struct{} {
	s := (*Tx)(d).lock()
	if s == nil {
		return closedDone
	}
	defer s.mu.Unlock()
	if s.aborted {
		return closedDone
	}
	if s.cancel == nil {
		s.cancel = make(chan struct{})
	}
	return s.cancel
}

// Do performs op on the named object as an access subtransaction, taking a
// read or write lock according to op.ReadOnly(), blocking until Moss'
// locking rule admits it. On success the access has committed and its lock
// is held by tx. Naming an unregistered object fails with an error
// wrapping [ErrUnknownObject] and leaves tx usable.
func (tx *Tx) Do(obj string, op Op) (Value, error) {
	s := tx.lock()
	if s == nil {
		return nil, ErrDone
	}
	k, err := s.newChild()
	m := s.mgr
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
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
	if s = tx.lock(); s == nil {
		// An ancestor aborted tx meanwhile, and the lock with it.
		return nil, ErrAborted
	}
	s.committed++
	if m.wal != nil {
		if s.effects == nil {
			s.effects = effectLists.Get().(*[]wal.Effect)
		}
		*s.effects = append(*s.effects, wal.Effect{Obj: obj, Op: op, Val: v})
	}
	s.mu.Unlock()
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
	s := tx.lock()
	if s == nil {
		return ErrDone
	}
	m := s.mgr
	s.mu.Unlock()
	return clock.Retry(m.clk, attempts, retryBase, nil, isDeadlock, func() error { return tx.Sub(fn) })
}

// retryBase is the first backoff ceiling between a deadlock victim's
// attempts: the waits grow from 50µs to a 3.2ms cap.
const retryBase = 50 * time.Microsecond

func isDeadlock(err error) bool { return errors.Is(err, ErrDeadlock) }

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
	s := tx.lock()
	if s == nil {
		h.id, h.err = tx.id, ErrDone
		close(h.done)
		return h
	}
	c, err := s.open(tx)
	if err != nil {
		s.mu.Unlock()
		h.id, h.err = tx.id, err
		close(h.done)
		return h
	}
	h.id = c.id
	h.older, s.handles = s.handles, h
	s.mu.Unlock()
	go func() {
		defer close(h.done)
		if h.err = c.run(fn); h.err == nil {
			// A committed child owes its parent's finish nothing. The
			// parent keeps its state until this Handle is done (see
			// settle). The scan starts at the newest, the usual one out.
			s.mu.Lock()
			p := &s.handles
			for *p != h {
				p = &(*p).older
			}
			*p = h.older
			s.mu.Unlock()
		}
	}()
	return h
}

// txChunk is the number of Tx in one slab chunk: as many as fill the
// allocator's 2,048-byte size class.
const txChunk = slab.ChunkBytes / int(unsafe.Sizeof(Tx{}))

// begin creates the k'th child of parent (nil for top level):
// REQUEST_CREATE and CREATE. The caller holds the parent's mu. The
// transaction's state is one that an earlier transaction gave back,
// new only when there is none: a child takes its parent's spare, and a
// top-level transaction, or a child whose parent has none (its sibling
// holds it, or no tree ran at this place before), a state from m's
// txStates. Once warm, a tree run with Sub takes from the pool only at
// its top. Every Tx is a slot cut from a shared chunk of txChunk, one
// allocation per chunk: a child from its parent's slab, so its
// chunk-mates are its siblings and cousins, a top-level one from its own
// state's, so they are its children and those of the earlier trees that
// state ran. The Tx and its name are one slot: the name is appended
// into tx.name, and only a name longer than that spills to an array of
// its own, as tree.TID.Child would allocate it.
//
// tx.id aliases the name's bytes, which is safe because they never change
// under it: they are written here, once, before tx.id exists; a slot is
// never reused, only the state behind it is; and vet's copylocks check
// (Tx holds an atomic pointer) forbids copying one. Every copy of the
// name points into the chunk, so the collector keeps the whole chunk
// alive for as long as any copy is reachable. That is 2 KiB and nothing
// more: a returned Tx points at no state.
func (m *Manager) begin(parent *Tx, k int) *Tx {
	var s, from *txState // from has the slab tx is cut from
	pid := tree.Root
	if parent != nil {
		from, pid = parent.state(), parent.id
		s, from.spare = from.spare, nil
	}
	if s == nil {
		if s, _ = m.txStates.Get().(*txState); s == nil {
			s = new(txState)
		}
	}
	if from == nil {
		from = s
	}
	tx := from.txs.New(txChunk)
	b := tree.AppendChild(tx.name[:0], pid, k)
	tx.id = tree.TID(unsafe.String(unsafe.SliceData(b), len(b)))
	// Under mu: a late call on the state's last owner may be reading owner.
	s.mu.Lock()
	s.owner, s.mgr, s.parent, s.start = tx, m, parent, time.Since(epoch)
	s.mu.Unlock()
	tx.st.Store(s)
	m.rec.RecordAll(
		event.Event{Kind: event.RequestCreate, T: tx.id},
		event.Event{Kind: event.Create, T: tx.id},
	)
	m.met.Trace(event.Create.String(), string(tx.id), "", 0)
	return tx
}

// release clears returned transaction tx's state s and gives it back for
// begin to hand to a new Tx: to the parent's state ps as its spare, and
// at top level (ps nil), or when ps already has a spare because a sibling
// ran beside tx, to m's txStates. The caller holds ps.mu. From here on tx
// reaches no state.
func (m *Manager) release(tx *Tx, s, ps *txState) {
	s.mu.Lock()
	tx.st.Store(nil)
	s.txFields = txFields{}
	s.mu.Unlock()
	if ps != nil && ps.spare == nil {
		ps.spare = s
	} else {
		m.txStates.Put(s)
	}
}

// Begin creates a subtransaction of tx and returns it open; the caller
// owes it exactly one [Tx.Commit] or [Tx.Abort], and tx cannot commit
// before that. [Tx.Sub] is Begin, a body, and that return.
func (tx *Tx) Begin() (*Tx, error) {
	s := tx.lock()
	if s == nil {
		return nil, ErrDone
	}
	defer s.mu.Unlock()
	return s.open(tx)
}

// open is Begin with tx's state s locked by the caller.
func (s *txState) open(tx *Tx) (*Tx, error) {
	k, err := s.newChild()
	if err != nil {
		return nil, err
	}
	c := s.mgr.begin(tx, k)
	if older := s.children; older != nil {
		c.state().older = older
		older.state().newer = c
	}
	s.children = c
	return c, nil
}

// unlinkChild takes returned child c off the list of open children. The
// caller holds s.mu; c's own links go when release clears its state.
func (s *txState) unlinkChild(c *Tx) {
	cs := c.state()
	if cs.newer != nil {
		cs.newer.state().older = cs.older
	} else {
		s.children = cs.older
	}
	if cs.older != nil {
		cs.older.state().newer = cs.newer
	}
}

// oldestChild returns the oldest open child, nil when there is none. The
// caller holds s.mu.
func (s *txState) oldestChild() *Tx {
	c := s.children
	for c != nil {
		older := c.state().older
		if older == nil {
			break
		}
		c = older
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
// all its owner can still do is abort it (Commit does so itself). On a tx
// already returned it does nothing.
func (tx *Tx) Cancel() {
	s := tx.lock()
	if s == nil {
		return
	}
	defer s.mu.Unlock()
	if s.aborted {
		return
	}
	s.aborted = true
	if s.cancel != nil {
		close(s.cancel)
	}
	// Parent before child is the one lock order, so the cascade may hold
	// s.mu across it; a child returning meanwhile waits to unlink.
	for c := s.oldestChild(); c != nil; c = c.state().newer {
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
// aborts it, unlinks it from its parent, and releases its state.
func (tx *Tx) end(commit bool) error {
	err := tx.settle(commit)
	s := tx.lock()
	if s == nil {
		return ErrDone
	}
	switch {
	case s.done:
		s.mu.Unlock()
		return ErrDone
	case commit && s.children != nil:
		open := s.oldestChild().id
		s.mu.Unlock()
		return fmt.Errorf("nestedtx: commit of %s with subtransaction %s still open", tx.id, open)
	case commit && err == nil && s.aborted:
		err = ErrAborted
	}
	// newChild refuses from here on, and no other end gets past this
	// point: the state is this call's until it releases it.
	s.done = true
	m, p := s.mgr, s.parent
	s.mu.Unlock()

	released := false // committed in the lock manager, whatever err says
	if commit && err == nil {
		if p == nil {
			if err = m.commitTop(tx.id, s); err != nil {
				released = errors.Is(err, ErrNotDurable)
			}
		} else {
			s.commitTo(tx, p)
		}
	}
	d := time.Since(epoch) - s.start
	kind := event.Commit
	if (!commit || err != nil) && !released {
		kind = event.Abort
		m.lm.Abort(tx.id)
		putEffects(s.takeEffects())
	}
	if p == nil {
		// A released-but-not-durable commit was not acknowledged: the
		// metrics, like the server's counters, file it under aborts.
		m.met.ObserveTx(d, commit && err == nil)
	}
	m.met.Trace(kind.String(), string(tx.id), "", d)
	if p == nil {
		m.release(tx, s, nil)
		return err
	}
	ps := p.state()
	ps.mu.Lock()
	ps.unlinkChild(tx)
	if kind == event.Commit {
		ps.committed++
	}
	m.release(tx, s, ps)
	ps.mu.Unlock()
	return err
}

// settle brings tx's subtree to rest ahead of tx's own return and reports
// what should stop a commit: a spawned subtransaction that failed and was
// never Waited is surfaced rather than silently committed around. It
// stops short when tx has returned meanwhile (an ancestor aborted it).
func (tx *Tx) settle(commit bool) (err error) {
	if !commit {
		tx.Cancel() // unblock descendants waiting on locks
	}
	// The walk goes newest to oldest, so the failure reported is the
	// oldest. A child unlinked meanwhile keeps its older link, so the
	// walk misses none of the list.
	s := tx.lock()
	if s == nil {
		return nil
	}
	for h := s.handles; h != nil; h = h.older {
		s.mu.Unlock()
		<-h.done
		if h.err != nil && !h.observed.Load() {
			err = fmt.Errorf("nestedtx: unawaited subtransaction %s failed: %w", h.id, h.err)
		}
		if s = tx.lock(); s == nil {
			return nil
		}
	}
	s.mu.Unlock()
	for !commit {
		s := tx.lock()
		if s == nil {
			break
		}
		c := s.children
		s.mu.Unlock()
		if c == nil {
			break
		}
		c.Abort()
	}
	return err
}

// commitTo returns tx, whose state s is, committed to its parent p.
func (s *txState) commitTo(tx, p *Tx) {
	m := s.mgr
	v := s.takeResult()
	if m.wal != nil {
		// Inherit the child's surviving effects *before* releasing its
		// locks: once lm.Commit runs, a conflicting sibling access can be
		// granted and appended after us, so merging first is what keeps
		// the parent's effect order aligned with the per-object grant
		// order (the WAL's serial-correctness argument rests on this).
		e := s.takeEffects()
		ps := p.state()
		ps.mu.Lock()
		if ps.effects == nil {
			ps.effects, e = e, nil
		} else if e != nil {
			*ps.effects = append(*ps.effects, *e...)
		}
		ps.mu.Unlock()
		putEffects(e)
	}
	m.rec.Record(event.Event{Kind: event.RequestCommit, T: tx.id, Value: v})
	m.lm.Commit(tx.id, v)
}

// takeEffects transfers ownership of the accumulated effect list, nil
// when there is none, to the caller.
func (s *txState) takeEffects() *[]wal.Effect {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.effects
	s.effects = nil
	return e
}

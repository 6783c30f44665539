package nestedtx

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"nestedtx/internal/checker"
	"nestedtx/internal/clock"
	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/lockmgr"
	"nestedtx/internal/obs"
	"nestedtx/internal/snap"
	"nestedtx/internal/tree"
	"nestedtx/internal/wal"
)

// ErrDeadlock is returned by an access when its transaction was chosen as
// the victim of a deadlock cycle; the transaction should be aborted (and
// may be retried, see [Tx.SubRetry] and [Manager.RunRetry]).
var ErrDeadlock = lockmgr.ErrDeadlock

// ErrAborted is returned by operations on a transaction that has already
// aborted (for example because an enclosing transaction aborted it).
var ErrAborted = errors.New("nestedtx: transaction aborted")

// ErrUnknownObject is wrapped by the error of an access that names an
// object nobody registered. The transaction is not aborted by it: the
// body may carry on, or return the error to abort.
var ErrUnknownObject = lockmgr.ErrUnknownObject

// ErrNotDurable is wrapped, beside the storage fault, by the error of a
// top-level [Tx.Commit] on a durable manager whose record was staged but
// never covered by an fsync. The transaction is neither acknowledged nor
// aborted: its locks were released at the stage and its effects stand in
// memory, invisible to [Manager.State] and to snapshots (the metrics count
// it with the aborts: it was not acknowledged). The log is failed from
// then on; whether the commit survived is for recovery to say.
var ErrNotDurable = errors.New("nestedtx: commit released but not durable")

// ErrDone is returned by operations on a transaction whose body has
// already returned, and by reads through a closed [Snapshot].
var ErrDone = snap.ErrDone

// Stats counts lock-manager activity during a run.
type Stats = lockmgr.Stats

// Option configures a Manager.
type Option func(*options)

type options struct {
	record    bool
	exclusive bool
	traceCap  int
	shards    int // lock-manager shards; 0 means runtime.GOMAXPROCS(0)
	clk       clock.Clock
}

// WithRecording makes the manager record the formal event schedule of the
// run, enabling [Manager.Verify] and [Manager.WriteSchedule]. Recording
// costs one slice append per formal operation and one system-type entry
// per object and per access (see [Manager.SystemType]), all kept for the
// life of the manager, and a name built for every access. Without it the
// manager keeps nothing per access, and names none: what a transaction
// allocated is garbage once its top-level transaction ends.
func WithRecording() Option { return func(o *options) { o.record = true } }

// WithExclusiveLocking treats every access as a write access. Per the
// paper (§4.3), Moss' algorithm then degenerates into pure exclusive
// locking — the baseline system of Lynch & Merritt. Intended for
// comparison experiments.
func WithExclusiveLocking() Option { return func(o *options) { o.exclusive = true } }

// WithTracing keeps a bounded ring buffer of the most recent capacity
// runtime trace entries — transaction lifecycle events in the formal
// vocabulary (CREATE, REQUEST_COMMIT, COMMIT, ABORT) plus lock waits and
// acquisitions — dumpable at any time via [Manager.Metrics]. Unlike
// [WithRecording], whose schedule grows without bound for Verify,
// tracing costs fixed memory and is safe to leave on in production.
func WithTracing(capacity int) Option { return func(o *options) { o.traceCap = capacity } }

// WithClock injects the time source the manager's deadlock-retry
// backoffs sleep on. The default is the wall clock; the deterministic
// simulator (internal/dst) injects its virtual clock so a seeded run's
// backoff schedule is a function of the seed, not of wall-clock
// scheduling. nil selects the default.
func WithClock(c clock.Clock) Option { return func(o *options) { o.clk = c } }

// Manager owns a universe of named shared objects and runs top-level
// transactions against them. A Manager is safe for concurrent use.
type Manager struct {
	lm   *lockmgr.Manager
	rec  *event.Recorder
	mode core.Mode
	met  *obs.Metrics
	// wal, when non-nil, makes the manager durable: every top-level
	// commit stages its redo record before its locks are released and is
	// acknowledged once an fsync covers it (see commitTop, OpenDurable).
	wal *wal.Log

	// snap is the committed-version store, the manager's whole read
	// side and its only committed state: every top-level commit publishes
	// its new root versions there (inside commitTop, before the locks are
	// released); State reads its
	// head and BeginSnapshot readers pin a sequence number, neither ever
	// touching the lock manager nor seeing a commit that is not yet
	// durable. In recording mode it also keeps the publication and
	// read-only-transaction logs Verify checks. Its name index is the
	// only one: the lock manager files every object there, inside the
	// object's lock state, and finds its lock states through it.
	snap *snap.Store

	// mu guards st — made and kept by a recording manager only, nil
	// otherwise — and on a durable manager makes a registration's check,
	// log record and adoption one step. It is taken to register an object
	// on a recording or durable manager and, in recording mode only, to
	// define an access; Run and a non-recording Do never touch it.
	mu sync.Mutex
	st *event.SystemType

	nextTop atomic.Int64

	// updates recycles the maps applyTop gathers a commit's root versions
	// in: the store copies what it keeps, so a map is free again once the
	// publication returns.
	updates sync.Pool
	// txStates holds the states top-level transactions gave back, and
	// those of children that returned while their parent held a spare,
	// each with its slab and its chain of spares (see Manager.begin): a
	// top-level transaction takes one and puts it back, and a
	// subtransaction touches the pool only when its parent holds no
	// spare, which a warm tree run with Sub never meets. It is the
	// manager's own, so a chunk's Tx all belong to one manager, and a
	// name kept from one manager's transaction never keeps another alive.
	txStates sync.Pool

	// clk is the time source for retry backoffs (WithClock; the wall
	// clock by default).
	clk clock.Clock
}

// NewManager returns an empty Manager.
func NewManager(opts ...Option) *Manager {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var rec *event.Recorder
	if o.record {
		rec = event.NewRecorder()
		// The root transaction T0 (modelling the external environment) is
		// created once, up front; its creation starts every well-formed
		// schedule of the root automaton.
		rec.Record(event.Event{Kind: event.Create, T: tree.Root})
	}
	mode := core.ReadWrite
	if o.exclusive {
		mode = core.Exclusive
	}
	met := &obs.Metrics{}
	if o.traceCap > 0 {
		met.Tracer = obs.NewTracer(o.traceCap)
	}
	store := snap.New(o.record)
	m := &Manager{
		lm:   lockmgr.NewOver(store, rec, mode, met, o.shards),
		rec:  rec,
		mode: mode,
		met:  met,
		snap: store,
		clk:  clock.Or(o.clk),
	}
	if o.record {
		m.st = event.NewSystemType()
	}
	return m
}

// Register declares a shared object. It must be called before any
// transaction touches the object. On a durable manager the registration
// is itself logged (so recovery is self-contained), which restricts
// initial states to the library's serialisable types; the record is
// staged, not awaited — it is durable no later than the next commit that
// returns, or the next SyncWAL, Checkpoint or CloseWAL.
func (m *Manager) Register(name string, initial State) error {
	if m.wal == nil {
		return m.adopt(name, initial)
	}
	// Under mu, so of two registrations of one name the second is refused
	// before it is logged: recovery keeps the first Register record, and
	// that must be the one whose state the manager serves.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap.Lookup(name) != nil {
		return fmt.Errorf("nestedtx: object %q already registered", name)
	}
	rec := wal.Record{Register: &wal.RegisterRecord{Name: name, Initial: initial}}
	_, err := m.wal.Stage(rec, func(uint64) error { return m.adoptLocked(name, initial) })
	return err
}

// adopt installs an object into the lock manager, the system type and the
// committed-version store without logging (shared by Register and
// OpenDurable's recovery path). Without a system type to enter it in,
// the lock manager's registration is the whole step, and it is atomic
// by itself.
func (m *Manager) adopt(name string, initial State) error {
	if m.rec == nil {
		return m.lm.Register(name, initial)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.adoptLocked(name, initial)
}

// adoptLocked is adopt with mu held. The lock manager goes first: it
// files the object in the committed-version store too, with its initial
// state as the first committed version, and it is the one that refuses a
// duplicate — a refused registration must leave the first one's initial
// state where Verify replays from it. Only a recording manager enters the
// object in the system type: Verify and defineAccess, both
// recording-only, are its readers.
func (m *Manager) adoptLocked(name string, initial State) error {
	if err := m.lm.Register(name, initial); err != nil {
		return err
	}
	if m.rec != nil {
		m.st.DefineObject(name, initial)
	}
	return nil
}

// MustRegister is Register, panicking on error.
func (m *Manager) MustRegister(name string, initial State) {
	if err := m.Register(name, initial); err != nil {
		panic(err)
	}
}

// State returns the committed-to-root state of an object: the head of
// its committed version chain, reflecting exactly the top-level
// transactions whose commits have been published — and, on a durable
// manager, are durable. The answer is
// always some committed prefix of the history — never a live writer's
// tentative version, and never a write that later aborts. Transactions
// may commit concurrently with the call; a commit in flight lands
// either entirely before or entirely after the read for this object.
// For a multi-object consistent cut, use [Manager.RunReadOnly].
func (m *Manager) State(name string) (State, error) {
	return m.snap.Head(name)
}

// ObjectName returns the name object b was registered under, and false
// when nobody registered it, without allocating: a server decoding a
// request names the object by the registered string, not by a copy of
// the request's bytes.
func (m *Manager) ObjectName(b []byte) (string, bool) {
	if o := m.snap.LookupBytes(b); o != nil {
		return o.Name(), true
	}
	return "", false
}

// Store exposes the committed-version store State and BeginSnapshot read
// from. The server answers its read verbs from it, the same way it
// answers them from a replica's; ordinary callers never need it.
func (m *Manager) Store() *snap.Store { return m.snap }

// Stats returns a copy of the lock-manager counters.
func (m *Manager) Stats() Stats { return m.lm.Stats() }

// Metrics returns the manager's live metrics registry: latency
// histograms, outcome counters, contention gauges and (with
// [WithTracing]) the bounded event trace ring. The registry is always
// present and safe for concurrent use; reading it never blocks
// transaction progress.
func (m *Manager) Metrics() *obs.Metrics { return m.met }

// Begin creates a top-level transaction (a child of the mythical root
// T0) and returns it open: the paper's interface, one operation at a
// time. The caller owes it exactly one [Tx.Commit] or [Tx.Abort].
func (m *Manager) Begin() *Tx {
	return m.begin(nil, int(m.nextTop.Add(1)-1))
}

// Run executes fn as a top-level transaction: Begin, the body, and
// Commit if fn returns nil — its effects become visible to subsequent
// transactions — or Abort otherwise, rolling back every effect of it and
// its descendants. A panic in fn aborts the transaction and re-panics.
func (m *Manager) Run(fn func(*Tx) error) error { return m.Begin().run(fn) }

// RunRetry is Run, retrying up to attempts times when the transaction
// fails with ErrDeadlock, with jittered exponential backoff between
// attempts to break victim livelock. attempts values below 1 are clamped
// to 1: fn always executes at least once.
func (m *Manager) RunRetry(attempts int, fn func(*Tx) error) error {
	return clock.Retry(m.clk, attempts, retryBase, nil, isDeadlock, func() error { return m.Run(fn) })
}

// commitTop runs the top-level commit sequence of transaction id, whose
// state s is. On a durable manager the
// redo record is staged in the log — its LSN reserved — *before* the lock
// manager releases the transaction's locks: strict locking then
// guarantees that any conflicting successor is granted (and so logged)
// after us, making WAL order agree with the per-object conflict order —
// the property recovery's Theorem-34 check relies on. The locks do not
// wait for the device; the acknowledgement does. commitTop returns nil
// only once an fsync covers the record, and until then the store's
// horizon hides the new versions from State and from snapshots. A
// transaction granted one of the released locks meanwhile sees them, and
// that is not an acknowledgement: it stages a later LSN (read-only ones
// log a record too), so it is durable, and returns, no earlier than us.
//
// A record that cannot be staged is returned for the caller to abort the
// transaction. A fault after the stage is a [ErrNotDurable] outcome: the
// locks are gone and nothing can be rolled back, but the log is latched,
// so every later commit — whatever it read — fails at its own stage,
// before it releases or publishes anything, and the horizon never passes
// this one. No acknowledged commit is ever absent from the log, and no
// reader outside a lock ever saw one that is.
func (m *Manager) commitTop(id tree.TID, s *txState) error {
	v := s.takeResult()
	if m.wal == nil {
		m.applyTop(id, v, 0)
		return nil
	}
	rec := wal.Record{Commit: &wal.CommitRecord{TID: string(id), Value: v}}
	effects := s.takeEffects()
	if effects != nil {
		rec.Commit.Effects = *effects
	}
	var seq uint64
	ticket, err := m.wal.Stage(rec, func(lsn uint64) error {
		seq = m.applyTop(id, v, lsn)
		return nil
	})
	putEffects(effects) // the log encoded what it keeps
	if err != nil {
		return fmt.Errorf("nestedtx: durable commit of %s: %w", id, err)
	}
	if err := ticket.Wait(); err != nil {
		return fmt.Errorf("nestedtx: durable commit of %s: %w: %w", id, ErrNotDurable, err)
	}
	if seq != 0 && m.snap.Settle(m.wal.DurableLSN()) < seq {
		// A commit that does not conflict with this one published before
		// it and logged after it, and is not durable yet. It was staged
		// before this one published, so a sync now covers it, and the
		// caller reads its own writes through State.
		if m.wal.Sync() == nil {
			m.snap.Settle(m.wal.DurableLSN())
		}
	}
	return nil
}

// applyTop is the scheduler's half of a top-level commit: REQUEST_COMMIT,
// then the transaction's new root versions go to the snapshot store
// before the lock manager releases its locks and drops its own — strict
// locking then guarantees any conflicting successor publishes after us,
// so snapshot order = conflict order = WAL order — then COMMIT. On a
// durable manager lsn is the commit record's and the publication is
// staged; applyTop returns its sequence number, zero when the
// transaction wrote nothing.
func (m *Manager) applyTop(id tree.TID, v Value, lsn uint64) (seq uint64) {
	m.rec.Record(event.Event{Kind: event.RequestCommit, T: id, Value: v})
	m.met.Trace(event.RequestCommit.String(), string(id), "", 0)
	up, _ := m.updates.Get().(map[string]State)
	if up = m.lm.TopVersions(id, up); len(up) > 0 {
		if m.wal != nil {
			seq = m.snap.Stage(string(id), up, lsn)
		} else {
			seq = m.snap.Publish(string(id), up)
		}
		m.met.SnapPublishes.Inc()
	}
	// A map never shrinks and clear costs its capacity, so one a large
	// commit grew is left to the collector.
	if up != nil && len(up) <= maxReused {
		clear(up)
		m.updates.Put(up)
	}
	m.lm.Commit(id, v)
	return seq
}

// maxReused is the largest publication map or effect list kept for reuse.
const maxReused = 64

// effectLists recycles durable transactions' effect lists (txState.effects).
var effectLists = sync.Pool{New: func() any { return new([]wal.Effect) }}

// putEffects returns effect list e, emptied, to the pool, unless there is
// none or a large transaction grew it.
func putEffects(e *[]wal.Effect) {
	if e != nil && cap(*e) <= maxReused {
		clear(*e)
		*e = (*e)[:0]
		effectLists.Put(e)
	}
}

// Schedule returns a snapshot of the recorded formal schedule (nil without
// [WithRecording]).
func (m *Manager) Schedule() event.Schedule { return m.rec.Snapshot() }

// SystemType returns the system type of the run so far, what Verify
// needs to read the schedule: with [WithRecording], every registered
// object and every access performed. A non-recording manager keeps
// neither, and returns a new, empty system type.
func (m *Manager) SystemType() *event.SystemType {
	if m.rec == nil {
		return event.NewSystemType()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st
}

// Verify machine-checks the recorded schedule against the paper's
// correctness condition: it must be a well-formed concurrent schedule,
// its projection at every object must replay on the formal R/W Locking
// object automaton M(X) — pinning the runtime lock manager to the
// paper's pre/postconditions — and it must be serially correct for the
// root and every non-orphan transaction (Theorem 34). When the run
// performed read-only snapshot transactions, it additionally verifies
// the publication log against the locking history and places each
// snapshot transaction at its pin point in the serial order, proving
// the combined history serially correct (or classifying the anomaly;
// see [checker.CheckSnapshots]). It requires [WithRecording] and should
// be called when no transactions are in flight.
//
// A recovered or otherwise serial history certifies in O(events) (see
// [checker.Certify]). A live concurrent one orders each sibling set once,
// but still emits and validates a witness per transaction (roughly
// transactions × events), so it is meant for tests and bounded
// validation runs, not for continuously running production histories.
func (m *Manager) Verify() error {
	if m.rec == nil {
		return fmt.Errorf("nestedtx: Verify requires WithRecording")
	}
	sched := m.rec.Snapshot()
	m.mu.Lock()
	st := m.st
	m.mu.Unlock()
	if err := checker.Certify(sched, st, m.mode, nil); err != nil {
		return fmt.Errorf("nestedtx: %w", err)
	}
	if err := checker.CheckSnapshots(sched, st, m.snap.Log(), m.snap.TxLog()); err != nil {
		return fmt.Errorf("nestedtx: %w", err)
	}
	return nil
}

// CheckInvariants verifies the lock-table invariants (Lemma 21) at this
// instant.
func (m *Manager) CheckInvariants() error { return m.lm.CheckInvariants() }

// WriteSchedule dumps the recorded schedule, one operation per line, in
// the paper's notation.
func (m *Manager) WriteSchedule(w io.Writer) error {
	for _, e := range m.rec.Snapshot() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// defineAccess registers a dynamically created access in the system type
// (recording mode only: Verify is its one reader).
func (m *Manager) defineAccess(a tree.TID, obj string, op Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.st.ObjectInitial(obj); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, obj)
	}
	return m.st.DefineAccess(a, obj, op)
}

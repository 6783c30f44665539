// Package lockmgr is the production engine behind the nestedtx runtime: a
// blocking implementation of Moss' read/write locking for nested
// transactions (the algorithm of §5.1), with version management for abort
// recovery and wait-for-graph deadlock detection.
//
// Where internal/core models M(X) as an I/O automaton whose responses are
// chosen by a driver, this package services real goroutines: an Acquire
// blocks until every holder of a conflicting lock is an ancestor of the
// requesting access, or until the caller is cancelled or chosen as a
// deadlock victim.
//
// Per-transaction cost tracks the transaction's footprint, not the size
// of the registered universe nor the number of other transactions: M(X)'s
// state is per object, and everything keyed by transaction is derived from
// it and kept once — per shard one record per top-level transaction (the
// lock sets of the tree's transactions and its queued waiters), per stripe
// the two sets of shards where such a record has either. Commit and Abort
// walk their own tree's records, and waiters queue on the object they are
// blocked on, so a commit or abort wakes only the waiters whose lock
// tables it changed.
//
// An object's write-lockholders are totally ordered by ancestry (Lemma
// 21) and the version map is defined exactly on them, so the two are kept
// as one stack per object: the root at the base, keeping no entry (its
// version is the store's latest), each holder a proper descendant of the
// one below, the least holder — whose version is the object's current
// state, and who alone decides whether a newcomer conflicts with a write
// lock — on top. A grant pushes or overwrites the top, a commit renames the
// top to its parent or folds it into the parent's entry or, at top level,
// drops it, an abort truncates. A read leaves the top's
// version as it found it and returns a function of it (§4.3), so the
// value of the last zero-size read is kept beside the stack until a write
// or an abort replaces the top, and a repeated read is answered from it
// without applying the op again. The set-based M(X) of
// internal/core stays the specification: the tests drive both through the
// same steps and compare after each.
//
// The lock tables are partitioned into N independent shards keyed by
// hash(object name) % N. The paper's locking rules are per-object — a
// lock's holders, waiters, and M(X)'s version map are all keyed by X — so
// the partition preserves the formal model exactly: each object's
// transitions still happen atomically under its shard's mutex and are
// recorded in the formal event vocabulary, so the schedule of a live run
// can be machine-checked against Theorem 34 by internal/checker.
// Cross-shard concerns (Commit/Abort footprints, deadlock cycles that
// span shards) go through a striped per-tree index; see shard.go and
// deadlock.go for the protocols.
package lockmgr

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/obs"
	"nestedtx/internal/slab"
	"nestedtx/internal/snap"
	"nestedtx/internal/tree"
)

// ErrDeadlock is wrapped by the error Acquire returns when the caller was
// chosen as the victim of a deadlock cycle; the error names the cycle,
// each member waiting for the next and the last for the first. The
// enclosing transaction should abort (the nestedtx runtime does this
// automatically and may retry).
var ErrDeadlock = errors.New("lockmgr: deadlock victim")

// ErrCancelled is returned by Acquire when the caller's cancel channel
// closed while waiting.
var ErrCancelled = errors.New("lockmgr: acquire cancelled")

// ErrUnknownObject is wrapped by every error that reports an object name
// nobody registered: the caller named it wrong, nothing in the manager
// failed.
var ErrUnknownObject = errors.New("object not registered")

// Stats counts manager activity, aggregated across shards; read a
// consistent copy via Manager.Stats. The fields are declared once, with
// the keys METRICS publishes them under, in internal/obs.
type Stats = obs.LockStats

// Manager owns the lock tables and versions of every registered object
// and the wait queues of every blocked acquisition, partitioned into
// shards by object name. It finds an object's lock state through the
// committed-version store's name index: each lock state embeds the
// store's record of its object and is that record's owner, so
// registering an object files its name once and a lookup touches one
// index slot and one record.
type Manager struct {
	mode  core.Mode
	rec   *event.Recorder
	met   *obs.Metrics
	store *snap.Store
	// slab is what Register cuts lock states from, one allocation per
	// lockStateChunk objects, inside the store's File and so under the
	// store's mutex. No object is ever unregistered, so a chunk lives as
	// long as the manager and a lock state never moves.
	slab slab.Slab[lockState]

	shards      []*shard
	stripes     []indexStripe
	escalations atomic.Uint64
	// walk is the scratch of the escalated deadlock walks, which hold
	// every shard mutex.
	walk walk
}

// indexStripe holds the cross-shard index for a slice of the top-level
// TID space: one map, keyed by top-level transaction, of the shards where
// the tree's record (shard.trees) has a lock set and of those where it has
// a queued waiter. A bit is set when the record's list gains its first
// member and cleared when the list empties, under that shard's mutex both
// times, so the two sets are exact — no counts, nothing to reconcile — and
// an entry exists exactly while some bit of it is set. The map is made by
// the stripe's first entry, so a stripe no tree reaches costs only its
// mutex. held is the footprint Commit and Abort visit; waiting is the
// confinement test deadlock detection uses to decide whether a local walk
// is sound or must escalate.
//
// Lock order: a stripe mutex is only ever taken while holding at most the
// shard mutexes already held by the caller, and no shard mutex is ever
// taken while holding a stripe mutex.
type indexStripe struct {
	mu    sync.Mutex
	trees map[tree.TID]treeShards
	free  []shardSet // words of deleted entries, all zero, for the next ones
}

// treeShards is a stripe entry: the shards where the tree holds locks and
// those where it has waiters queued.
type treeShards [2]shardSet

const held, waiting = 0, 1 // the two sets of a treeShards

// shardSet is a bit set over shard ids, bit i%64 of word i/64 standing
// for shard i; every set of a manager has the words its shard count needs.
type shardSet []uint64

func (s shardSet) add(i int)      { s[i/64] |= 1 << (i % 64) }
func (s shardSet) remove(i int)   { s[i/64] &^= 1 << (i % 64) }
func (s shardSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

func (s shardSet) empty() bool { return !slices.ContainsFunc(s, func(w uint64) bool { return w != 0 }) }

const numStripes = 64

// fnv32 is FNV-1a, inlined to keep the shard lookup allocation-free. It
// hashes a name's bytes where they lie, as a string or in a buffer.
func fnv32[S string | []byte](s S) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// ShardOf returns the shard index object x maps to in a manager with the
// given shard count. Exported so tests and tools can construct object
// names with known shard placement.
func ShardOf(x string, shards int) int {
	return int(fnv32(x) % uint32(shards))
}

// New returns a Manager recording to rec (nil disables recording) with the
// given lock classification mode and runtime.GOMAXPROCS(0) shards. met
// receives lock-wait latencies, victim counts by cause, and queue-depth
// gauges; nil means nobody reads them.
func New(rec *event.Recorder, mode core.Mode, met *obs.Metrics) *Manager {
	return NewSharded(rec, mode, met, 0)
}

// NewSharded is New with an explicit shard count; n < 1 selects
// runtime.GOMAXPROCS(0). The manager files its objects in a
// committed-version store of its own.
func NewSharded(rec *event.Recorder, mode core.Mode, met *obs.Metrics, n int) *Manager {
	return NewOver(snap.New(false), rec, mode, met, n)
}

// NewOver is NewSharded over store: Register files each object in store,
// beside the initial committed version it bases there, and every lookup
// of an object reads store's index. A store serves one lock manager, and
// only the lock manager files objects in it.
func NewOver(store *snap.Store, rec *event.Recorder, mode core.Mode, met *obs.Metrics, n int) *Manager {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	m := &Manager{
		mode:    mode,
		rec:     rec,
		met:     obs.Or(met),
		store:   store,
		shards:  make([]*shard, n),
		stripes: make([]indexStripe, numStripes),
	}
	m.met.ShardQueued = make([]obs.Gauge, n)
	for i := range m.shards {
		m.shards[i] = &shard{id: i, m: m}
	}
	return m
}

// ShardCount returns the number of lock shards.
func (m *Manager) ShardCount() int { return len(m.shards) }

func (m *Manager) shardFor(x string) *shard {
	return m.shards[ShardOf(x, len(m.shards))]
}

// lookup returns object x's lock state, or nil when x is not registered.
// It takes no lock: a lock state is complete before its record is filed
// and never moves, and its fields are read under its shard's mutex.
func (m *Manager) lookup(x string) *lockState {
	if o := m.store.Lookup(x); o != nil {
		ls, _ := o.Owner().(*lockState)
		return ls
	}
	return nil
}

// stripeFor returns the index stripe for top-level transaction top.
func (m *Manager) stripeFor(top tree.TID) *indexStripe {
	return &m.stripes[fnv32(string(top))%numStripes]
}

// topOf returns t's top-level ancestor (t itself when t is top-level).
// t must not be the root.
func topOf(t tree.TID) tree.TID { return tree.Root.ChildToward(t) }

// ---- cross-shard per-tree index ----

// markShard sets or clears shard sid in one (held or waiting) set of top's
// tree. The caller holds shard sid's mutex and calls once per transition
// of the tree's record there between empty and non-empty, never per access.
func (m *Manager) markShard(top tree.TID, sid, which int, on bool) {
	st := m.stripeFor(top)
	st.mu.Lock()
	defer st.mu.Unlock()
	words := (len(m.shards) + 63) / 64
	e, ok := st.trees[top]
	if !ok {
		// One allocation for both sets, or none.
		var buf shardSet
		if n := len(st.free); n > 0 {
			buf, st.free = st.free[n-1], st.free[:n-1]
		} else {
			buf = make(shardSet, 2*words)
		}
		e = treeShards{buf[:words], buf[words:]}
		if st.trees == nil {
			st.trees = make(map[tree.TID]treeShards)
		}
		st.trees[top] = e
	}
	if on {
		e[which].add(sid)
		return
	}
	e[which].remove(sid)
	if e[held].empty() && e[waiting].empty() {
		delete(st.trees, top)
		st.free = append(st.free, e[held][:2*words])
	}
}

// eachFpShard calls f, under the shard's mutex, on every shard (ascending
// id) where top's tree holds locks.
func (m *Manager) eachFpShard(top tree.TID, f func(*shard)) {
	// The walk runs on a copy so the stripe mutex is never held together
	// with a shard mutex taken after it; up to 256 shards the copy stays
	// on the stack.
	var buf [4]uint64
	st := m.stripeFor(top)
	st.mu.Lock()
	words := append(buf[:0], st.trees[top][held]...)
	st.mu.Unlock()
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			sh := m.shards[i*64+bits.TrailingZeros64(w)]
			sh.mu.Lock()
			f(sh)
			sh.mu.Unlock()
		}
	}
}

// treeConfined reports whether every queued waiter of top's tree sits in
// shard sid — the condition under which a deadlock walk that only sees
// sid's wait edges is complete for that tree.
func (m *Manager) treeConfined(top tree.TID, sid int) bool {
	st := m.stripeFor(top)
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, w := range st.trees[top][waiting] {
		if i == sid/64 {
			w &^= 1 << (sid % 64)
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// ---- public API ----

// Register declares object x with initial state init; the root holds the
// initial write lock, exactly as in M(X)'s initial state. That lock has
// no entry in x's chain and appears in no per-tree record: the root never
// commits or aborts, so nothing would look it up. The lock state is
// filed in the store as x's record, with init as x's first committed
// version, so x is registered in both layers at once or, when the store
// refuses the name, in neither.
func (m *Manager) Register(x string, init adt.State) error {
	filed := m.store.File(x, init, func() (*snap.Object, any) {
		// Under the store's mutex, which is what guards m.slab.
		ls := m.slab.New(lockStateChunk)
		ls.chain = ls.base[:0]
		return &ls.Object, ls
	})
	if !filed {
		return fmt.Errorf("lockmgr: object %q already registered", x)
	}
	return nil
}

// Stats returns a copy of the counters, aggregated across shards.
func (m *Manager) Stats() Stats {
	var out Stats
	for _, sh := range m.shards {
		sh.mu.Lock()
		s := sh.stats
		sh.mu.Unlock()
		out.Acquires += s.Acquires
		out.Waits += s.Waits
		out.Deadlocks += s.Deadlocks
		out.CommitMoves += s.CommitMoves
		out.AbortReleases += s.AbortReleases
		out.Wakeups += s.Wakeups
		out.SpuriousWakeups += s.SpuriousWakeups
		if s.MaxQueueDepth > out.MaxQueueDepth {
			out.MaxQueueDepth = s.MaxQueueDepth
		}
	}
	out.Shards = uint64(len(m.shards))
	out.Escalations = m.escalations.Load()
	return out
}

// TopVersions adds to out, and returns, the new root versions a
// committing top-level transaction is about to install: for every object
// top holds a write lock on, the version top holds. out may be nil; it is
// made when there is a first version to add, so a transaction that wrote
// nothing gets nil. The runtime calls it inside the top-level commit
// sequence — after every descendant has committed into top, before
// Commit(top) releases the locks — to publish the commit into the
// snapshot store, handing it the same emptied map commit after commit.
// Aborted descendants' versions were already discarded, so the result
// contains only effects that commit to root.
func (m *Manager) TopVersions(top tree.TID, out map[string]adt.State) map[string]adt.State {
	m.eachFpShard(top, func(sh *shard) {
		r := sh.trees[top]
		i := r.find(top)
		if i < 0 {
			return
		}
		for ls := range r.held[i].set {
			// top's entry, when it has one, is the chain's first.
			// It is published when dirty, not merely write-locked: under
			// exclusive locking pure readers hold write locks too, but
			// their (unchanged) versions are not publications — the
			// conflict order the checker rebuilds only contains actual
			// mutations.
			if len(ls.chain) > 0 && ls.chain[0].t == top && ls.chain[0].dirty {
				if out == nil {
					out = make(map[string]adt.State)
				}
				out[ls.Name()] = ls.chain[0].st
			}
		}
	})
	return out
}

// isWrite reports whether op takes a write lock under the manager's mode.
func (m *Manager) isWrite(op adt.Op) bool {
	return m.mode == core.Exclusive || !op.ReadOnly()
}

// Acquire runs an access of live transaction tx applying op to object x,
// blocking until the Moss locking rule admits it. On success it returns
// the operation's value; the lock ends up held by tx (the access is
// granted its lock, commits, and the lock passes to its parent — the
// corresponding five formal events are recorded atomically).
//
// access is the access's name, a fresh child of tx, and only the recorder
// reads it; a manager that records nothing may be passed "". Admission
// and wait-for edges are decided on tx: a fresh access holds no lock and
// has no descendants, so a holder is its ancestor exactly when the holder
// is tx's, and its least common ancestor with any holder is tx's.
//
// cancel may be nil. Its Done is called only once the access blocks, and
// that channel closing unblocks the wait with ErrCancelled (used when the
// enclosing transaction is aborted externally). ErrDeadlock is returned
// when the wait was chosen as a deadlock victim, even when the victim
// choice races an external cancel — the deadlock outcome wins, so retry
// loops keyed on ErrDeadlock observe it.
func (m *Manager) Acquire(tx, access tree.TID, x string, op adt.Op, cancel interface{ Done() <-chan struct{} }) (adt.Value, error) {
	// A lock state never moves, so one lookup serves every wakeup.
	ls := m.lookup(x)
	if ls == nil {
		return nil, fmt.Errorf("lockmgr: %w: %q", ErrUnknownObject, x)
	}
	sh := m.shardFor(x)
	write := m.isWrite(op)
	waited := false
	var waitStart time.Time  // set when the acquisition first blocks
	var done <-chan struct{} // cancel's channel, asked for at the first wait
	sh.mu.Lock()
	for {
		if !ls.blocked(tx, write) {
			v := sh.grantLocked(ls, tx, access, op, write)
			sh.stats.Acquires++
			if waited {
				sh.stats.Waits++
				d := time.Since(waitStart)
				m.met.LockWait.Observe(d)
				m.met.Trace(obs.KindLockAcquire, string(tx), x, d)
			}
			// A grant can complete a wait-for cycle (a newly compatible
			// read lock blocks an older write waiter) without any new
			// waiter registering, so detection must run here too. Every
			// edge the grant adds sources from a waiter already queued on
			// this object, so those transactions are the only roots a new
			// cycle can be found from.
			var escalated []tree.TID
			if len(ls.queue) > 0 {
				starts := sh.walk.starts[:0]
				for _, qw := range ls.queue {
					starts = append(starts, qw.tx)
				}
				sh.walk.starts = starts
				if sh.breakCyclesLocked(starts) {
					// The shard's scratch is the next walk's once sh.mu
					// is dropped, so the escalated walk gets a copy.
					escalated = slices.Clone(starts)
				}
			}
			sh.mu.Unlock()
			if escalated != nil {
				m.breakCyclesGlobal(escalated)
			}
			return v, nil
		}
		if waited {
			// Woken by a commit/abort on this object but still blocked.
			sh.stats.SpuriousWakeups++
		}
		// Conflicting lock held by a non-ancestor: wait for the holder's
		// chain to commit (lock inheritance) or abort (lock release).
		if !waited {
			waitStart = time.Now()
			m.met.Trace(obs.KindLockWait, string(tx), x, 0)
		}
		w := &waiter{tx: tx, ls: ls, sh: sh, write: write, wake: make(chan struct{})}
		sh.enqueueLocked(w)
		// Every edge this wait adds either sources from tx (lock edges) or
		// targets tx (structural edges from its ancestors), so any cycle
		// completed by the registration is reachable from tx.
		if sh.breakCyclesLocked([]tree.TID{tx}) {
			// The cycle (if any) leaves this shard: drop the shard lock and
			// run the walk over a consistent all-shard snapshot, then
			// re-check our own fate — the global walk (or a concurrent
			// waker) may have victimised or woken w in the gap.
			sh.mu.Unlock()
			m.breakCyclesGlobal([]tree.TID{tx})
			sh.mu.Lock()
		}
		if w.victim != nil {
			// The detector already dequeued w.
			m.victimExit(waitStart, true)
			sh.mu.Unlock()
			return nil, w.victim
		}
		sh.mu.Unlock()
		waited = true
		if done == nil && cancel != nil {
			done = cancel.Done()
		}
		select {
		case <-w.wake:
			sh.mu.Lock()
			if w.victim != nil {
				m.victimExit(waitStart, true)
				sh.mu.Unlock()
				return nil, w.victim
			}
			// The waker dequeued w; loop and rescan.
		case <-done:
			sh.mu.Lock()
			if w.victim != nil {
				// Deadlock victim chosen concurrently with the cancel: the
				// victim outcome is already counted in stats.Deadlocks and
				// must be reported so the caller's retry logic sees it.
				m.victimExit(waitStart, true)
				sh.mu.Unlock()
				return nil, w.victim
			}
			sh.dequeueLocked(w)
			m.victimExit(waitStart, false)
			sh.mu.Unlock()
			return nil, ErrCancelled
		}
	}
}

// victimExit records the metrics of a wait that ended without a grant:
// the wait duration and the victim cause (deadlock vs external
// cancellation). Every blocked acquisition therefore lands in the
// lock-wait histogram exactly once — granted, victimised, or cancelled —
// so LockWait.Count reconciles with Waits + victims-by-cause.
func (m *Manager) victimExit(waitStart time.Time, deadlock bool) {
	m.met.LockWait.Observe(time.Since(waitStart))
	if deadlock {
		m.met.VictimsDeadlock.Inc()
	} else {
		m.met.VictimsCancelled.Inc()
	}
}

// Commit moves every lock held by t up to parent(t) (with its version, for
// write locks), recording COMMIT(t) and the INFORM_COMMIT events, then
// wakes the waiters queued on the objects whose lock tables changed. It
// visits only the shards where t's tree holds locks and there only t's
// own set — cost is proportional to the transaction's footprint. It must
// be called exactly once per committing transaction, after all of t's
// children have returned.
//
// The root's version is the store's latest, so a top-level t's versions
// are committed only if the caller publishes TopVersions(t) to the store
// before Commit(t), which drops them; the next access reads the store's.
//
// The shards are visited one at a time, so a concurrent observer can see
// some of t's locks already inherited and others not yet — exactly the
// asynchronous propagation the paper's per-object INFORM_COMMIT_AT(t,X)
// events model. The recorder orders COMMIT(t) before every INFORM, so the
// replayed schedule is well-formed regardless of interleaving.
func (m *Manager) Commit(t tree.TID, value event.Value) {
	p := t.Parent()
	top := topOf(t)
	m.rec.Record(event.Event{Kind: event.Commit, T: t})
	m.eachFpShard(top, func(sh *shard) {
		r := sh.trees[top]
		i := r.find(t)
		if i < 0 {
			return
		}
		set := r.held[i].set
		for ls := range set {
			// t holds a write lock, a read lock, or both on ls. A read lock
			// passing to the root is dropped: the root conflicts with nobody.
			ls.inheritWrite(t, p)
			if ls.read.Has(t) {
				ls.read.Remove(t)
				if p != tree.Root {
					ls.read.Add(p)
				}
				sh.releaseReadsLocked(ls)
			}
			sh.stats.CommitMoves++
			m.rec.Record(event.Event{Kind: event.InformCommitAt, T: t, Object: ls.Name()})
			sh.wakeQueuedLocked(ls)
		}
		// Every lock in the set is now p's: the root's are listed nowhere, a
		// parent with no set here takes t's under its own name, and one that
		// has a set gets the smaller of the two merged into the larger.
		j := r.find(p)
		switch {
		case p == tree.Root:
			sh.recycleSetLocked(set)
		case j < 0:
			r.held[i].t = p
			return
		default:
			mine := r.held[j].set
			if len(mine) < len(set) {
				mine, set = set, mine
				r.held[j].set = mine
			}
			for ls := range set {
				mine[ls] = struct{}{}
			}
			sh.recycleSetLocked(set)
		}
		if r.held = slices.Delete(r.held, i, i+1); len(r.held) == 0 {
			sh.emptiedLocked(top, r, held)
		}
	})
	m.rec.Record(event.Event{Kind: event.ReportCommit, T: t, Value: value})
}

// Abort discards every lock and version held by t or its descendants,
// recording ABORT(t) and the INFORM_ABORT events, then wakes the waiters
// queued on the objects whose lock tables changed. The affected objects
// are found in t's tree's records, in the shards where it holds locks, so
// cost is proportional to the tree's footprint whoever else holds locks.
func (m *Manager) Abort(t tree.TID) {
	top := topOf(t)
	m.rec.Record(event.Event{Kind: event.Abort, T: t})
	m.eachFpShard(top, func(sh *shard) {
		r := sh.trees[top]
		if r == nil {
			return
		}
		kept := r.held[:0]
		for _, e := range r.held {
			if !e.t.IsDescendantOf(t) {
				kept = append(kept, e)
				continue
			}
			// An object two transactions of the subtree hold is reached
			// twice; the first visit releases every lock under t, so the
			// second finds nothing and counts nothing.
			for ls := range e.set {
				touched := ls.discardWrites(t)
				for u := range ls.read {
					if u.IsDescendantOf(t) {
						ls.read.Remove(u)
						touched = true
					}
				}
				sh.releaseReadsLocked(ls)
				if touched {
					sh.stats.AbortReleases++
					m.rec.Record(event.Event{Kind: event.InformAbortAt, T: t, Object: ls.Name()})
					sh.wakeQueuedLocked(ls)
				}
			}
			sh.recycleSetLocked(e.set)
		}
		if len(kept) == len(r.held) {
			return
		}
		clear(r.held[len(kept):])
		if r.held = kept; len(kept) == 0 {
			sh.emptiedLocked(top, r, held)
		}
	})
	m.rec.Record(event.Event{Kind: event.ReportAbort, T: t})
}

// CheckInvariants verifies Lemma 21 (each object's write-lockholders
// strictly descend from the root, which has no entry in the chain, and
// every read-lockholder is ancestry-related to every write-lockholder),
// that every write-lockholder has a version, that each memo is what its
// op returns from the current version, that the per-tree records agree
// exactly with the lock tables and the queues (see checkLocked), and that
// the shard partition is clean: every waiter and every lock set of a
// shard names only objects its hash places there, and a tree's held
// (waiting) bit for a shard is set exactly when its record there has a
// lock set (a waiter). It locks every shard (ascending, the global order)
// and every bit is flipped under its shard's mutex, so shards and stripes
// are one consistent snapshot. For tests and stress runs.
func (m *Manager) CheckInvariants() error {
	for _, sh := range m.shards {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(m.shards) - 1; i >= 0; i-- {
			m.shards[i].mu.Unlock()
		}
	}()
	objs := make([][]*lockState, len(m.shards))
	for o := range m.store.Objects() {
		i := ShardOf(o.Name(), len(m.shards))
		objs[i] = append(objs[i], o.Owner().(*lockState))
	}
	for _, sh := range m.shards {
		if err := sh.checkLocked(objs[sh.id]); err != nil {
			return err
		}
		// Record to bits: what the record has, the stripe says.
		for top, r := range sh.trees {
			st := m.stripeFor(top)
			st.mu.Lock()
			e, ok := st.trees[top]
			st.mu.Unlock()
			if !ok {
				return fmt.Errorf("lockmgr: tree %s has a record in shard %d but no stripe entry", top, sh.id)
			}
			if e[held].has(sh.id) != (len(r.held) > 0) {
				return fmt.Errorf("lockmgr: tree %s holds locks for %d transactions in shard %d but its held bit is %v", top, len(r.held), sh.id, e[held].has(sh.id))
			}
			if e[waiting].has(sh.id) != (len(r.waiters) > 0) {
				return fmt.Errorf("lockmgr: tree %s has %d waiters queued in shard %d but its waiting bit is %v", top, len(r.waiters), sh.id, e[waiting].has(sh.id))
			}
		}
	}
	// Bits to record: every set bit names a shard with a record (whose
	// lists the pass above compared), and an entry has at least one.
	words := (len(m.shards) + 63) / 64
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		for top, e := range st.trees {
			if err := m.checkEntry(top, e, words); err != nil {
				st.mu.Unlock()
				return err
			}
		}
		st.mu.Unlock()
	}
	return nil
}

// checkEntry verifies one stripe entry: exactly the words a manager of this
// shard count uses, at least one shard named (an entry exists while a bit
// of it is set), none beyond the last, and a record in every shard named.
func (m *Manager) checkEntry(top tree.TID, e treeShards, words int) error {
	if len(e[held]) != words || len(e[waiting]) != words {
		return fmt.Errorf("lockmgr: stripe entry of %s has %d+%d words, want %d each", top, len(e[held]), len(e[waiting]), words)
	}
	if e[held].empty() && e[waiting].empty() {
		return fmt.Errorf("lockmgr: stripe entry of %s names no shard", top)
	}
	for sid := 0; sid < words*64; sid++ {
		if !e[held].has(sid) && !e[waiting].has(sid) {
			continue
		}
		if sid >= len(m.shards) {
			return fmt.Errorf("lockmgr: stripe entry of %s names shard %d of %d", top, sid, len(m.shards))
		}
		if m.shards[sid].trees[top] == nil {
			return fmt.Errorf("lockmgr: stripe entry of %s names shard %d, which has no record of it", top, sid)
		}
	}
	return nil
}

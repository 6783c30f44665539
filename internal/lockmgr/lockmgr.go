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
// of the registered universe: a held-locks index (TID → locked objects)
// lets Commit and Abort visit only the objects the transaction actually
// locked, and waiters queue on the object they are blocked on, so a
// commit or abort wakes only the waiters whose lock tables it changed.
//
// An object's write-lockholders are totally ordered by ancestry (Lemma
// 21) and the version map is defined exactly on them, so the two are kept
// as one stack per object: the root with the committed state at the base,
// each holder a proper descendant of the one below, the least holder —
// whose version is the object's current state, and who alone decides
// whether a newcomer conflicts with a write lock — on top. A grant pushes
// or overwrites the top, a commit renames the top to its parent or folds
// it into the parent's entry, an abort truncates. The set-based M(X) of
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
	"sync"
	"sync/atomic"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/obs"
	"nestedtx/internal/tree"
)

// ErrDeadlock is returned by Acquire when the caller was chosen as the
// victim of a deadlock cycle. The enclosing transaction should abort (the
// nestedtx runtime does this automatically and may retry).
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
// the keys STATS publishes them under, in internal/obs.
type Stats = obs.LockStats

// Manager owns the lock tables and versions of every registered object
// and the wait queues of every blocked acquisition, partitioned into
// shards by object name.
type Manager struct {
	mode core.Mode
	rec  *event.Recorder
	met  *obs.Metrics

	shards      []*shard
	stripes     []indexStripe
	escalations atomic.Uint64
}

// indexStripe holds the cross-shard per-tree indexes for a slice of the
// top-level TID space. Two maps, both keyed by top-level transaction:
//
//   - held: the set of shard ids where the tree holds (or ever held, until
//     it ends) at least one lock — the footprint Commit and Abort visit —
//     as a bit set: one small allocation when the tree takes its first
//     lock, none to extend or walk it. Entries are deleted when the
//     top-level transaction commits or aborts; over-approximation in
//     between is harmless (a visited shard with nothing to move is a
//     no-op).
//   - waits: per-shard count of the tree's queued waiters — the
//     confinement test deadlock detection uses to decide whether a local
//     walk is sound or must escalate.
//
// Lock order: a stripe mutex is only ever taken while holding at most the
// shard mutexes already held by the caller, and no shard mutex is ever
// taken while holding a stripe mutex.
type indexStripe struct {
	mu    sync.Mutex
	held  map[tree.TID]shardSet
	waits map[tree.TID]map[int]int
}

// shardSet is a bit set over shard ids, bit i%64 of word i/64 standing
// for shard i; every set of a manager has the words its shard count needs.
type shardSet []uint64

func (s shardSet) add(i int)      { s[i/64] |= 1 << (i % 64) }
func (s shardSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

const numStripes = 64

// fnv32 is FNV-1a, inlined to keep the shard lookup allocation-free.
func fnv32(s string) uint32 {
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
// runtime.GOMAXPROCS(0).
func NewSharded(rec *event.Recorder, mode core.Mode, met *obs.Metrics, n int) *Manager {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	m := &Manager{
		mode:    mode,
		rec:     rec,
		met:     obs.Or(met),
		shards:  make([]*shard, n),
		stripes: make([]indexStripe, numStripes),
	}
	m.met.ShardQueued = make([]obs.Gauge, n)
	for i := range m.shards {
		m.shards[i] = &shard{
			id:         i,
			m:          m,
			objects:    make(map[string]*lockState),
			held:       make(map[tree.TID]lockSet),
			waiting:    make(map[tree.TID][]*waiter),
			topWaiting: make(map[tree.TID]map[tree.TID]struct{}),
		}
	}
	for i := range m.stripes {
		m.stripes[i].held = make(map[tree.TID]shardSet)
		m.stripes[i].waits = make(map[tree.TID]map[int]int)
	}
	return m
}

// ShardCount returns the number of lock shards.
func (m *Manager) ShardCount() int { return len(m.shards) }

func (m *Manager) shardFor(x string) *shard {
	return m.shards[ShardOf(x, len(m.shards))]
}

// stripeFor returns the index stripe for top-level transaction top.
func (m *Manager) stripeFor(top tree.TID) *indexStripe {
	return &m.stripes[fnv32(string(top))%numStripes]
}

// topOf returns t's top-level ancestor (t itself when t is top-level).
// t must not be the root.
func topOf(t tree.TID) tree.TID { return tree.Root.ChildToward(t) }

// ---- cross-shard per-tree indexes ----

// fpAdd records that t's tree holds at least one lock in shard sid.
// The root's locks are not tracked (the root never commits or aborts).
func (m *Manager) fpAdd(t tree.TID, sid int) {
	if t == tree.Root {
		return
	}
	top := topOf(t)
	st := m.stripeFor(top)
	st.mu.Lock()
	s := st.held[top]
	if s == nil {
		s = make(shardSet, (len(m.shards)+63)/64)
		st.held[top] = s
	}
	s.add(sid)
	st.mu.Unlock()
}

// eachFpShard calls f, under the shard's mutex, on every shard (ascending
// id) where top's tree may hold locks.
func (m *Manager) eachFpShard(top tree.TID, f func(*shard)) {
	visit := func(sh *shard) {
		sh.mu.Lock()
		f(sh)
		sh.mu.Unlock()
	}
	if len(m.shards) == 1 {
		visit(m.shards[0])
		return
	}
	// The walk runs on a copy so the stripe mutex is never held together
	// with a shard mutex taken after it; up to 256 shards the copy stays
	// on the stack.
	var buf [4]uint64
	st := m.stripeFor(top)
	st.mu.Lock()
	words := append(buf[:0], st.held[top]...)
	st.mu.Unlock()
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			visit(m.shards[i*64+bits.TrailingZeros64(w)])
		}
	}
}

// fpForget drops top's footprint entry; called when the top-level
// transaction commits or aborts (all descendants have returned by then,
// so no grant can race the deletion).
func (m *Manager) fpForget(top tree.TID) {
	st := m.stripeFor(top)
	st.mu.Lock()
	delete(st.held, top)
	st.mu.Unlock()
}

// waitAdd counts one queued waiter of t's tree in shard sid.
func (m *Manager) waitAdd(t tree.TID, sid int) {
	top := topOf(t)
	st := m.stripeFor(top)
	st.mu.Lock()
	s := st.waits[top]
	if s == nil {
		s = make(map[int]int)
		st.waits[top] = s
	}
	s[sid]++
	st.mu.Unlock()
}

// waitRemove undoes one waitAdd.
func (m *Manager) waitRemove(t tree.TID, sid int) {
	top := topOf(t)
	st := m.stripeFor(top)
	st.mu.Lock()
	if s := st.waits[top]; s != nil {
		if s[sid]--; s[sid] <= 0 {
			delete(s, sid)
			if len(s) == 0 {
				delete(st.waits, top)
			}
		}
	}
	st.mu.Unlock()
}

// treeConfined reports whether every queued waiter of top's tree sits in
// shard sid — the condition under which a deadlock walk that only sees
// sid's wait edges is complete for that tree.
func (m *Manager) treeConfined(top tree.TID, sid int) bool {
	if len(m.shards) == 1 {
		return true
	}
	st := m.stripeFor(top)
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.waits[top]
	for other := range s {
		if other != sid {
			return false
		}
	}
	return true
}

// ---- public API ----

// Register declares object x with initial state init; the root holds the
// initial write lock, exactly as in M(X)'s initial state. That lock is the
// base of x's chain and appears in no index: the root never commits or
// aborts, so nothing would look it up.
func (m *Manager) Register(x string, init adt.State) error {
	sh := m.shardFor(x)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.objects[x]; dup {
		return fmt.Errorf("lockmgr: object %q already registered", x)
	}
	// Room for the root and one top-level writer: the flat case never
	// grows the chain.
	chain := make([]writeHolder, 1, 2)
	chain[0] = writeHolder{t: tree.Root, st: init}
	sh.objects[x] = &lockState{name: x, chain: chain, read: tree.NewSet()}
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

// TopVersions returns the new root versions a committing top-level
// transaction is about to install: for every object top holds a write
// lock on, the version top holds. The runtime calls it inside the
// top-level commit sequence — after every descendant has committed into
// top, before Commit(top) releases the locks — to publish the commit
// into the snapshot store. Aborted descendants' versions were already
// discarded, so the result contains only effects that commit to root.
func (m *Manager) TopVersions(top tree.TID) map[string]adt.State {
	var out map[string]adt.State
	m.eachFpShard(top, func(sh *shard) {
		for ls := range sh.held[top] {
			// top's entry, when it has one, sits directly on the root's.
			// It is published when dirty, not merely write-locked: under
			// exclusive locking pure readers hold write locks too, but
			// their (unchanged) versions are not publications — the
			// conflict order the checker rebuilds only contains actual
			// mutations.
			if len(ls.chain) > 1 && ls.chain[1].t == top && ls.chain[1].dirty {
				if out == nil {
					out = make(map[string]adt.State)
				}
				out[ls.name] = ls.chain[1].st
			}
		}
	})
	return out
}

// Registered reports whether object x has been registered.
func (m *Manager) Registered(x string) bool {
	sh := m.shardFor(x)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.objects[x]
	return ok
}

// RootStates returns the committed-to-root state of every registered
// object — the root's version, excluding every version still held by a
// live transaction. This is the durable snapshot a checkpoint persists:
// with the WAL's commit gate held no top-level commit is in flight, so
// the shard-by-shard walk reads one consistent cut that equals the redo
// of all logged records.
func (m *Manager) RootStates() map[string]adt.State {
	out := make(map[string]adt.State)
	for _, sh := range m.shards {
		sh.mu.Lock()
		for x, ls := range sh.objects {
			out[x] = ls.chain[0].st
		}
		sh.mu.Unlock()
	}
	return out
}

// isWrite reports whether op takes a write lock under the manager's mode.
func (m *Manager) isWrite(op adt.Op) bool {
	return m.mode == core.Exclusive || !op.ReadOnly()
}

// Acquire runs access `access` (a child of live transaction tx) applying
// op to object x, blocking until the Moss locking rule admits it. On
// success it returns the operation's value; the lock ends up held by tx
// (the access is granted its lock, commits, and the lock passes to its
// parent — the corresponding five formal events are recorded atomically).
//
// cancel, when closed, unblocks the wait with ErrCancelled (used when the
// enclosing transaction is aborted externally). ErrDeadlock is returned
// when the wait was chosen as a deadlock victim, even when the victim
// choice races an external cancel — the deadlock outcome wins, so retry
// loops keyed on ErrDeadlock observe it.
func (m *Manager) Acquire(tx, access tree.TID, x string, op adt.Op, cancel <-chan struct{}) (adt.Value, error) {
	sh := m.shardFor(x)
	write := m.isWrite(op)
	waited := false
	var waitStart time.Time // set when the acquisition first blocks
	sh.mu.Lock()
	for {
		ls, ok := sh.objects[x]
		if !ok {
			sh.mu.Unlock()
			return nil, fmt.Errorf("lockmgr: %w: %q", ErrUnknownObject, x)
		}
		if !ls.blocked(access, write) {
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
			var starts []tree.TID
			if len(ls.queue) > 0 {
				starts = make([]tree.TID, 0, len(ls.queue))
				for _, qw := range ls.queue {
					starts = append(starts, qw.tx)
				}
			}
			escalate := len(starts) > 0 && sh.breakCyclesLocked(starts)
			sh.mu.Unlock()
			if escalate {
				m.breakCyclesGlobal(starts)
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
		w := &waiter{tx: tx, access: access, ls: ls, sh: sh, write: write, wake: make(chan struct{})}
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
		if w.victim {
			// The detector already dequeued w.
			m.victimExit(waitStart, true)
			sh.mu.Unlock()
			return nil, ErrDeadlock
		}
		sh.mu.Unlock()
		waited = true
		select {
		case <-w.wake:
			sh.mu.Lock()
			if w.victim {
				m.victimExit(waitStart, true)
				sh.mu.Unlock()
				return nil, ErrDeadlock
			}
			// The waker dequeued w; loop and rescan.
		case <-cancel:
			sh.mu.Lock()
			if w.victim {
				// Deadlock victim chosen concurrently with the cancel: the
				// victim outcome is already counted in stats.Deadlocks and
				// must be reported so the caller's retry logic sees it.
				m.victimExit(waitStart, true)
				sh.mu.Unlock()
				return nil, ErrDeadlock
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
// visits only the shards in t's tree's footprint index — cost is
// proportional to the transaction's footprint, not the registered
// universe. It must be called exactly once per committing transaction,
// after all of t's children have returned.
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
		set := sh.held[t]
		if set == nil {
			return
		}
		for ls := range set {
			// t holds a write lock, a read lock, or both on ls. A read lock
			// passing to the root is dropped: the root conflicts with nobody.
			ls.inheritWrite(t, p)
			if ls.read.Has(t) {
				ls.read.Remove(t)
				if p != tree.Root {
					ls.read.Add(p)
				}
			}
			sh.stats.CommitMoves++
			m.rec.Record(event.Event{Kind: event.InformCommitAt, T: t, Object: ls.name})
			sh.wakeQueuedLocked(ls)
		}
		delete(sh.held, t)
		if p == tree.Root {
			sh.recycleSetLocked(set)
		} else {
			sh.indexInheritLocked(p, set)
		}
	})
	if p == tree.Root {
		m.fpForget(top)
	}
	m.rec.Record(event.Event{Kind: event.ReportCommit, T: t, Value: value})
}

// Abort discards every lock and version held by t or its descendants,
// recording ABORT(t) and the INFORM_ABORT events, then wakes the waiters
// queued on the objects whose lock tables changed. The affected objects
// are found through the held-locks indexes of the shards in t's tree's
// footprint, so cost is proportional to the aborted subtree's footprint.
func (m *Manager) Abort(t tree.TID) {
	top := topOf(t)
	m.rec.Record(event.Event{Kind: event.Abort, T: t})
	m.eachFpShard(top, func(sh *shard) {
		affected := sh.newSetLocked()
		for u, objs := range sh.held {
			if u.IsDescendantOf(t) {
				for ls := range objs {
					affected[ls] = struct{}{}
				}
				delete(sh.held, u)
				sh.recycleSetLocked(objs)
			}
		}
		for ls := range affected {
			touched := ls.discardWrites(t)
			for u := range ls.read {
				if u.IsDescendantOf(t) {
					ls.read.Remove(u)
					touched = true
				}
			}
			if touched {
				sh.stats.AbortReleases++
				m.rec.Record(event.Event{Kind: event.InformAbortAt, T: t, Object: ls.name})
				sh.wakeQueuedLocked(ls)
			}
		}
		sh.recycleSetLocked(affected)
	})
	if t.Parent() == tree.Root {
		m.fpForget(top)
	}
	m.rec.Record(event.Event{Kind: event.ReportAbort, T: t})
}

// CheckInvariants verifies Lemma 21 (each object's write-lockholders
// strictly descend from the root at the base of its chain, and every
// read-lockholder is ancestry-related to every write-lockholder), that
// every write-lockholder has a version, that the held-locks index agrees
// exactly with the lock tables (the root's locks alone are unindexed), and
// that the shard partition is clean: every object lives in exactly the
// shard its hash names, every held lock is covered by the cross-shard
// footprint index, and the striped waiter counts match the queues
// exactly. It locks every shard (ascending, the global order), so the
// snapshot is consistent across shards. For tests and stress runs.
func (m *Manager) CheckInvariants() error {
	for _, sh := range m.shards {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(m.shards) - 1; i >= 0; i-- {
			m.shards[i].mu.Unlock()
		}
	}()
	// waits[top][shard] as the queues say; compared against the stripes.
	seenWaits := make(map[tree.TID]map[int]int)
	for _, sh := range m.shards {
		if err := sh.checkLocked(seenWaits); err != nil {
			return err
		}
	}
	// Every indexed lock must be covered by the footprint index, and the
	// striped waiter counts must match the queues exactly. Stripe
	// mutations happen only while holding some shard mutex — all held
	// here — except fpForget, which runs strictly after the tree's last
	// lock left every shard, so "footprint ⊇ held" still holds on any
	// interleaving.
	for _, sh := range m.shards {
		for t := range sh.held {
			top := topOf(t)
			st := m.stripeFor(top)
			st.mu.Lock()
			fp := st.held[top]
			ok := fp != nil && fp.has(sh.id)
			st.mu.Unlock()
			if !ok {
				return fmt.Errorf("lockmgr: %s holds locks in shard %d but footprint index misses it", t, sh.id)
			}
		}
	}
	striped := make(map[tree.TID]map[int]int)
	words := (len(m.shards) + 63) / 64
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		for top, fp := range st.held {
			if err := checkFootprint(top, fp, words, len(m.shards)); err != nil {
				st.mu.Unlock()
				return err
			}
		}
		for top, s := range st.waits {
			for sid, n := range s {
				if striped[top] == nil {
					striped[top] = make(map[int]int)
				}
				striped[top][sid] += n
			}
		}
		st.mu.Unlock()
	}
	for top, s := range seenWaits {
		for sid, n := range s {
			if striped[top][sid] != n {
				return fmt.Errorf("lockmgr: tree %s has %d waiters queued in shard %d but stripe counts %d", top, n, sid, striped[top][sid])
			}
		}
	}
	for top, s := range striped {
		for sid, n := range s {
			if seenWaits[top][sid] != n {
				return fmt.Errorf("lockmgr: stripe counts %d waiters for tree %s in shard %d but %d are queued", n, top, sid, seenWaits[top][sid])
			}
		}
	}
	return nil
}

// checkFootprint verifies the shape of one footprint: exactly the words a
// manager of this shard count uses, at least one shard named (an entry is
// created by the grant that sets its first bit), none beyond the last.
func checkFootprint(top tree.TID, fp shardSet, words, shards int) error {
	if len(fp) != words {
		return fmt.Errorf("lockmgr: footprint of %s has %d words, want %d", top, len(fp), words)
	}
	named := 0
	for sid := 0; sid < words*64; sid++ {
		if !fp.has(sid) {
			continue
		}
		if sid >= shards {
			return fmt.Errorf("lockmgr: footprint of %s names shard %d of %d", top, sid, shards)
		}
		named++
	}
	if named == 0 {
		return fmt.Errorf("lockmgr: footprint of %s names no shard", top)
	}
	return nil
}

package lockmgr

import (
	"fmt"
	"reflect"
	"sync"

	"nestedtx/internal/adt"
	"nestedtx/internal/event"
	"nestedtx/internal/tree"
)

// shard owns the lock tables, versions, and wait queues of the objects
// hashing to it. Everything inside is guarded by mu; nothing in a
// shard is ever touched under another shard's mutex alone. When a path
// needs several shard mutexes at once (the escalated deadlock walk,
// CheckInvariants), it takes them in ascending id order — the global
// shard-lock order that makes multi-shard sections deadlock-free.
type shard struct {
	id int
	m  *Manager

	mu      sync.Mutex
	objects map[string]*lockState
	// held is the held-locks index: for every transaction other than the
	// root holding at least one lock in this shard, the set of its objects
	// the transaction holds a (read or write) lock on. Commit and Abort
	// walk this index instead of the whole universe. The root never
	// commits or aborts, so nothing would walk an entry for it: its write
	// lock on every object is the base of the object's chain and is listed
	// nowhere else. A set has one owner: a committing transaction's set
	// passes to its parent (adopted whole or merged, see
	// indexInheritLocked; recycled at a top-level commit), and emptied
	// sets wait on freeSets for the next transaction, so a steady workload
	// allocates none.
	held     map[tree.TID]lockSet
	freeSets []lockSet
	// waiting indexes the queued waiters by their transaction, for
	// demand-driven wait-for-graph exploration and victim selection.
	waiting map[tree.TID][]*waiter
	// topWaiting groups the waiting transactions by their top-level
	// ancestor. Structural wait-for edges (ancestor → waiting descendant)
	// never cross a top-level boundary, so successor enumeration scans
	// only the waiting transactions of one tree.
	topWaiting map[tree.TID]map[tree.TID]struct{}
	stats      Stats
}

// lockSet is a set of objects, the value type of the held-locks index.
type lockSet map[*lockState]struct{}

// maxRecycledSet is the largest set kept for reuse. A map never shrinks
// and clear costs its capacity, so a set one huge transaction grew is
// left to the collector rather than charged to every small transaction
// that would draw it from the free list afterwards.
const maxRecycledSet = 64

// lockState is the M(X) state for one object: the write-lockholders with
// their versions, the read-lockholders, and the queue of acquisitions
// blocked on this object.
type lockState struct {
	name string
	// chain is the write-lock table and the version map in one. Lemma 21
	// orders the write-lockholders totally by ancestry and §5.1 defines
	// the version map exactly on them, so together they are a stack:
	// chain[0] is the root with the committed state, every entry is a
	// proper descendant of the one below it, and the top is the least
	// write-lockholder, whose version is the object's current state.
	chain []writeHolder
	read  tree.Set
	queue []*waiter
}

// writeHolder is one write-lockholder and the version it holds.
type writeHolder struct {
	t  tree.TID
	st adt.State
	// dirty marks a holder that actually mutated the object (applied a
	// non-read-only op, directly or via a committed descendant). Under
	// exclusive locking read-only accesses take write locks too;
	// publication to the snapshot store keys off dirty, not the lock, so
	// pure readers never publish.
	dirty bool
}

type waiter struct {
	tx     tree.TID // the live transaction performing the access
	access tree.TID
	ls     *lockState // the object the waiter is queued on
	sh     *shard     // the shard ls lives in
	write  bool       // whether the access needs a write lock
	wake   chan struct{}
	victim bool
}

// top returns the least write-lockholder's entry; its version is what
// Moss calls the current state of the object.
func (ls *lockState) top() *writeHolder { return &ls.chain[len(ls.chain)-1] }

// blocked reports whether some holder of a conflicting lock is not an
// ancestor of t. On the write side the top of the chain decides: every
// other write-lockholder is an ancestor of the top, so all of them are
// ancestors of t exactly when the top is.
func (ls *lockState) blocked(t tree.TID, write bool) bool {
	if !ls.top().t.IsAncestorOf(t) {
		return true
	}
	if write {
		for u := range ls.read {
			if !u.IsAncestorOf(t) {
				return true
			}
		}
	}
	return false
}

// holdsWrite reports whether t is a write-lockholder other than the root.
func (ls *lockState) holdsWrite(t tree.TID) bool {
	for _, h := range ls.chain[1:] {
		if h.t == t {
			return true
		}
	}
	return false
}

// inheritWrite passes t's write lock and version, if it holds them, to
// its parent p. t's descendants have returned by the time t commits, so an
// entry of t is the top of the chain; it folds into p's entry when that is
// the one directly below (p's own version is superseded), and is renamed
// to p otherwise.
func (ls *lockState) inheritWrite(t, p tree.TID) {
	n := len(ls.chain) - 1
	top := &ls.chain[n]
	if top.t != t {
		return
	}
	if below := &ls.chain[n-1]; below.t == p {
		below.st, below.dirty = top.st, below.dirty || top.dirty
		*top = writeHolder{}
		ls.chain = ls.chain[:n]
	} else {
		top.t = p
	}
}

// discardWrites drops the write locks and versions of t's descendants and
// reports whether there were any. The descendants of t in a chain are a
// suffix of it: whatever sits above a descendant of t descends from t too.
func (ls *lockState) discardWrites(t tree.TID) bool {
	for i := 1; i < len(ls.chain); i++ {
		if ls.chain[i].t.IsDescendantOf(t) {
			clear(ls.chain[i:])
			ls.chain = ls.chain[:i]
			return true
		}
	}
	return false
}

// ---- held-locks index ----

// indexAddLocked records that t holds a lock on ls. Caller holds sh.mu.
func (sh *shard) indexAddLocked(t tree.TID, ls *lockState) {
	s := sh.held[t]
	if s == nil {
		s = sh.newSetLocked()
		sh.held[t] = s
	}
	s[ls] = struct{}{}
}

// indexInheritLocked passes set, the index entry a committing transaction
// just gave up, to its parent p — every lock in it is now p's. p adopts
// the set when it has none in this shard; otherwise the smaller of the
// two is merged into the larger and recycled. Caller holds sh.mu.
func (sh *shard) indexInheritLocked(p tree.TID, set lockSet) {
	mine := sh.held[p]
	if mine == nil {
		sh.held[p] = set
		return
	}
	if len(mine) < len(set) {
		mine, set = set, mine
		sh.held[p] = mine
	}
	for ls := range set {
		mine[ls] = struct{}{}
	}
	sh.recycleSetLocked(set)
}

// newSetLocked returns an empty set, from the free list when it has one.
// Caller holds sh.mu.
func (sh *shard) newSetLocked() lockSet {
	if n := len(sh.freeSets); n > 0 {
		s := sh.freeSets[n-1]
		sh.freeSets = sh.freeSets[:n-1]
		return s
	}
	return make(lockSet)
}

// recycleSetLocked empties a set no index entry refers to any more and
// keeps it for newSetLocked. The free list never holds more sets than
// were live in the shard at once. Caller holds sh.mu.
func (sh *shard) recycleSetLocked(s lockSet) {
	if len(s) > maxRecycledSet {
		return
	}
	clear(s)
	sh.freeSets = append(sh.freeSets, s)
}

// ---- wait queues ----

// enqueueLocked appends w to its object's wait queue, the per-tx waiting
// index, and the cross-shard waiter counts. Caller holds sh.mu.
func (sh *shard) enqueueLocked(w *waiter) {
	ls := w.ls
	ls.queue = append(ls.queue, w)
	if len(ls.queue) == 1 {
		sh.m.met.ContendedObjects.Add(1)
	}
	sh.m.met.QueuedWaiters.Add(1)
	sh.m.met.AddShardQueued(sh.id, 1)
	if len(sh.waiting[w.tx]) == 0 {
		top := topOf(w.tx)
		s := sh.topWaiting[top]
		if s == nil {
			s = make(map[tree.TID]struct{})
			sh.topWaiting[top] = s
		}
		s[w.tx] = struct{}{}
	}
	sh.waiting[w.tx] = append(sh.waiting[w.tx], w)
	sh.m.waitAdd(w.tx, sh.id)
	if d := uint64(len(ls.queue)); d > sh.stats.MaxQueueDepth {
		sh.stats.MaxQueueDepth = d
	}
}

// dequeueLocked removes w from its object's wait queue if still present,
// and from the waiting index. Caller holds sh.mu.
func (sh *shard) dequeueLocked(w *waiter) {
	ls := w.ls
	for i, q := range ls.queue {
		if q == w {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			sh.m.met.QueuedWaiters.Add(-1)
			sh.m.met.AddShardQueued(sh.id, -1)
			if len(ls.queue) == 0 {
				sh.m.met.ContendedObjects.Add(-1)
			}
			break
		}
	}
	sh.unindexWaiterLocked(w)
}

// unindexWaiterLocked drops w from the per-tx waiting index and the
// cross-shard waiter counts. Caller holds sh.mu.
func (sh *shard) unindexWaiterLocked(w *waiter) {
	ws := sh.waiting[w.tx]
	for i, q := range ws {
		if q == w {
			ws = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(ws) == 0 {
		delete(sh.waiting, w.tx)
		top := topOf(w.tx)
		if s := sh.topWaiting[top]; s != nil {
			delete(s, w.tx)
			if len(s) == 0 {
				delete(sh.topWaiting, top)
			}
		}
	} else {
		sh.waiting[w.tx] = ws
	}
	sh.m.waitRemove(w.tx, sh.id)
}

// wakeQueuedLocked wakes every waiter queued on ls — the targeted wakeup
// issued when ls's lock tables changed. Woken waiters rescan and requeue
// if still blocked. Caller holds sh.mu.
func (sh *shard) wakeQueuedLocked(ls *lockState) {
	for _, w := range ls.queue {
		close(w.wake)
		sh.stats.Wakeups++
		sh.unindexWaiterLocked(w)
	}
	if n := len(ls.queue); n > 0 {
		sh.m.met.QueuedWaiters.Add(-int64(n))
		sh.m.met.AddShardQueued(sh.id, -int64(n))
		sh.m.met.ContendedObjects.Add(-1)
	}
	ls.queue = nil
}

// grantLocked applies op, grants the access its lock, and immediately
// commits the access so the lock is inherited by tx. Caller holds sh.mu.
func (sh *shard) grantLocked(ls *lockState, tx, access tree.TID, op adt.Op, write bool) adt.Value {
	top := ls.top()
	next, v := op.Apply(top.st)
	if write {
		if top.t != tx {
			ls.chain = append(ls.chain, writeHolder{t: tx})
			top = ls.top()
		}
		top.st = next
		top.dirty = top.dirty || !op.ReadOnly()
	} else {
		ls.read.Add(tx)
	}
	sh.indexAddLocked(tx, ls)
	sh.m.fpAdd(tx, sh.id)
	sh.m.rec.RecordAll(
		event.Event{Kind: event.RequestCommit, T: access, Value: v},
		event.Event{Kind: event.Commit, T: access},
		event.Event{Kind: event.InformCommitAt, T: access, Object: ls.name},
		event.Event{Kind: event.ReportCommit, T: access, Value: v},
	)
	return v
}

// checkLocked runs the single-shard invariants and accumulates the shard's
// queued-waiter counts per tree into seenWaits for the caller's
// cross-shard reconciliation. Caller holds sh.mu.
func (sh *shard) checkLocked(seenWaits map[tree.TID]map[int]int) error {
	for x, ls := range sh.objects {
		if ShardOf(x, len(sh.m.shards)) != sh.id {
			return fmt.Errorf("lockmgr: object %q stored in shard %d but hashes to %d", x, sh.id, ShardOf(x, len(sh.m.shards)))
		}
		// Lemma 21 on the write side: the root at the base, every holder
		// a proper descendant of the one below, a version for each.
		if len(ls.chain) == 0 || ls.chain[0].t != tree.Root {
			return fmt.Errorf("lockmgr: %s: the root's write lock is not the base of the chain", x)
		}
		for i, h := range ls.chain {
			if i > 0 && !ls.chain[i-1].t.IsProperAncestorOf(h.t) {
				return fmt.Errorf("lockmgr: %s: write-lockholder %s above %s, not its proper descendant", x, h.t, ls.chain[i-1].t)
			}
			if h.st == nil {
				return fmt.Errorf("lockmgr: %s: write-lockholder %s has no version", x, h.t)
			}
			for r := range ls.read {
				if !h.t.IsAncestorOf(r) && !r.IsAncestorOf(h.t) {
					return fmt.Errorf("lockmgr: %s: write holder %s unrelated to read holder %s", x, h.t, r)
				}
			}
			// Every lockholder but the root must appear in the held-locks
			// index.
			if _, indexed := sh.held[h.t][ls]; i > 0 && !indexed {
				return fmt.Errorf("lockmgr: %s: write holder %s missing from held-locks index", x, h.t)
			}
		}
		for r := range ls.read {
			if _, ok := sh.held[r][ls]; !ok {
				return fmt.Errorf("lockmgr: %s: read holder %s missing from held-locks index", x, r)
			}
		}
	}
	// Every index entry must be backed by a lock, and every set has one
	// owner: no two entries share a set, and a set on the free list is
	// empty, listed once and owned by no entry.
	owner := make(map[uintptr]tree.TID, len(sh.held))
	for t, objs := range sh.held {
		if t == tree.Root {
			return fmt.Errorf("lockmgr: shard %d indexes the root's locks", sh.id)
		}
		if len(objs) == 0 {
			return fmt.Errorf("lockmgr: empty held-locks index entry for %s", t)
		}
		id := reflect.ValueOf(objs).Pointer()
		if u, shared := owner[id]; shared {
			return fmt.Errorf("lockmgr: held-locks index entries of %s and %s share one set", t, u)
		}
		owner[id] = t
		for ls := range objs {
			if !ls.read.Has(t) && !ls.holdsWrite(t) {
				return fmt.Errorf("lockmgr: held-locks index lists %s on %s without a lock", t, ls.name)
			}
		}
	}
	for _, s := range sh.freeSets {
		if len(s) != 0 {
			return fmt.Errorf("lockmgr: shard %d free list holds a set of %d objects", sh.id, len(s))
		}
		id := reflect.ValueOf(s).Pointer()
		if u, taken := owner[id]; taken {
			return fmt.Errorf("lockmgr: shard %d free list holds a set already owned by %q (empty: the list itself)", sh.id, u)
		}
		owner[id] = ""
	}
	// Queue bookkeeping: the waiting index lists exactly the queued
	// waiters.
	queued := 0
	for _, ls := range sh.objects {
		queued += len(ls.queue)
		for _, w := range ls.queue {
			if w.sh != sh {
				return fmt.Errorf("lockmgr: waiter of %s on %s carries wrong shard", w.tx, ls.name)
			}
			found := false
			for _, q := range sh.waiting[w.tx] {
				if q == w {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("lockmgr: waiter of %s on %s missing from waiting index", w.tx, ls.name)
			}
		}
	}
	indexed := 0
	for t, ws := range sh.waiting {
		if len(ws) == 0 {
			return fmt.Errorf("lockmgr: empty waiting-index entry for %s", t)
		}
		indexed += len(ws)
		if _, ok := sh.topWaiting[topOf(t)][t]; !ok {
			return fmt.Errorf("lockmgr: waiting transaction %s missing from top-level grouping", t)
		}
		top := topOf(t)
		if seenWaits[top] == nil {
			seenWaits[top] = make(map[int]int)
		}
		seenWaits[top][sh.id] += len(ws)
	}
	if queued != indexed {
		return fmt.Errorf("lockmgr: %d queued waiters but %d indexed", queued, indexed)
	}
	for top, s := range sh.topWaiting {
		if len(s) == 0 {
			return fmt.Errorf("lockmgr: empty top-level grouping for %s", top)
		}
		for t := range s {
			if len(sh.waiting[t]) == 0 {
				return fmt.Errorf("lockmgr: top-level grouping lists %s with no waiters", t)
			}
		}
	}
	return nil
}

package lockmgr

import (
	"fmt"
	"reflect"
	"slices"
	"sync"

	"nestedtx/internal/adt"
	"nestedtx/internal/event"
	"nestedtx/internal/snap"
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

	mu sync.Mutex
	// trees is the shard's one index keyed by transaction: for every
	// top-level transaction whose tree holds a lock or has a waiter queued
	// in this shard, the record of both. A record is in the map exactly
	// while it is non-empty; emptied records and emptied lock sets wait on
	// the free lists for the next transaction, so a steady workload
	// allocates none. The map is made by the first record filed in it.
	trees    map[tree.TID]*treeRec
	freeRecs []*treeRec
	freeSets []lockSet
	// freeReads are emptied read sets, kept for the next object that
	// gains a first read-lockholder (see lockState.read).
	freeReads []tree.Set
	// walk is the scratch of the deadlock walks that hold only mu.
	walk  walk
	stats Stats
}

// treeRec is everything one transaction tree has in one shard.
type treeRec struct {
	// held lists the tree's transactions that hold at least one (read or
	// write) lock here, each with the set of objects it holds one on —
	// what Commit and Abort walk instead of the universe. At most
	// depth-many transactions of a tree hold locks at once and the flat
	// case has one, so the slice is searched linearly. The root never
	// commits or aborts, so nothing would walk an entry for it: its write
	// lock on every object is listed nowhere, not even in the object's
	// chain. A set has one owner: a committing transaction's passes
	// to its parent (renamed or merged, see Commit) and is recycled at a
	// top-level commit or an abort.
	held []txLocks
	// waiters lists the tree's queued acquisitions, oldest first: the
	// wait-for edges deadlock detection enumerates. A waiter is here
	// exactly while it is on its object's queue.
	waiters []*waiter
}

type txLocks struct {
	t   tree.TID
	set lockSet
}

// find returns the index of t's entry in r.held, or -1; r may be nil.
func (r *treeRec) find(t tree.TID) int {
	if r != nil {
		for i := range r.held {
			if r.held[i].t == t {
				return i
			}
		}
	}
	return -1
}

// lockSet is a set of objects: what one transaction holds locks on.
type lockSet map[*lockState]struct{}

// maxRecycledSet is the largest set kept for reuse. A map never shrinks
// and clear costs its capacity, so a set one huge transaction grew is
// left to the collector rather than charged to every small transaction
// that would draw it from the free list afterwards.
const maxRecycledSet = 64

// lockStateChunk is the number of lock states one slab allocation holds:
// 39 lock states of 208 B and the 8-byte header Go puts before a
// pointerful object of over 512 B fit the 8,192-byte size class, and 40
// would spill into the 9,472-byte one.
const lockStateChunk = 39

// lockState is the M(X) state for one object: the write-lockholders with
// their versions, the read-lockholders, and the queue of acquisitions
// blocked on this object. It lives in its manager's slab, and its address
// is its identity: lock sets and waiters point at it, and chain starts
// in its own base array.
type lockState struct {
	// Object is the store's record of the object — its name and its
	// committed versions — of which this lock state is the owner: the
	// store's index finds both in one allocation. The lock manager reads
	// its name and its latest version; the store writes it.
	snap.Object
	// chain is the write-lock table and the version map in one. Lemma 21
	// orders the write-lockholders totally by ancestry and §5.1 defines
	// the version map exactly on them, so together they are a stack: the
	// root's version is the store's latest and has no entry, every entry
	// is a proper descendant of the one below it (the first of the root),
	// and the top is the least write-lockholder, whose version is the
	// object's current state. Empty, only the root holds the write lock.
	chain []writeHolder
	// read is the set of read-lockholders other than the root, nil while
	// there are none: the first read lock draws a set from the shard's free
	// list, and the Commit or Abort that removes the last reader puts it
	// back, so an object nobody reads holds no set.
	read  tree.Set
	queue []*waiter
	// memo, when memo.op is set, is the value memo.op returns from
	// current(). A read leaves the version as it found it and returns a
	// function of it (§4.3), so an equal read takes memo.v without Apply.
	// A memoizable read that is applied sets it; so does a write whose op
	// names a memoizable read-back (adt.ReadBacker), to that read and the
	// value the write returned, and any other write clears it. A
	// truncating discardWrites and a top-level commit of a mutated version
	// nobody published clear it too; a nested commit and an
	// exclusive-mode read leave current() as it was.
	memo readMemo
	// base is the chain's first array: room for one top-level writer in
	// the lock state's own allocation, so registering an object makes no
	// chain and the flat case never grows one.
	base [1]writeHolder
}

// readMemo is one memoizable op and the value it returns from an
// object's current version.
type readMemo struct {
	op adt.Op
	v  adt.Value
}

// memoizable reports whether op's value may be kept in a readMemo: a
// read-only op of a comparable type with no fields, such as CtrGet. So
// comparing another op with a kept one never panics, and two equal ops
// are the same operation; an op with fields (SetContains{1}) is applied
// every time.
func memoizable(op adt.Op) bool {
	t := reflect.TypeOf(op)
	return op.ReadOnly() && t.Size() == 0 && t.Comparable()
}

// applyTo returns op's value on st, and an error where Apply panics: a
// memo's op (a write's read-back among them) made for another type's
// state.
func applyTo(op adt.Op, st adt.State) (v adt.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s does not apply to %s: %v", op, st, r)
		}
	}()
	_, v = op.Apply(st)
	return v, nil
}

// sameState reports whether a == b, and false where == could panic.
func sameState(a, b adt.State) bool { return reflect.ValueOf(a).Comparable() && a == b }

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
	tx     tree.TID   // the live transaction performing the access
	ls     *lockState // the object the waiter is queued on
	sh     *shard     // the shard ls lives in
	write  bool       // whether the access needs a write lock
	wake   chan struct{}
	victim *deadlockError // the cycle w was elected victim of; nil until then
}

// current returns what Moss calls the current state of the object: the
// least write-lockholder's version, the store's latest when that is the
// root. Caller holds sh.mu, which orders the read after the publication
// that a write-lockholder made before its Commit took sh.mu.
func (ls *lockState) current() adt.State {
	if n := len(ls.chain); n > 0 {
		return ls.chain[n-1].st
	}
	return ls.Latest()
}

// blocked reports whether some holder of a conflicting lock is not an
// ancestor of t. On the write side the top of the chain decides: every
// other write-lockholder is an ancestor of the top, so all of them are
// ancestors of t exactly when the top is, and the root is everyone's.
func (ls *lockState) blocked(t tree.TID, write bool) bool {
	if n := len(ls.chain); n > 0 && !ls.chain[n-1].t.IsAncestorOf(t) {
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
	for _, h := range ls.chain {
		if h.t == t {
			return true
		}
	}
	return false
}

// inheritWrite passes t's write lock and version, if it holds them, to
// its parent p. t's descendants have returned by the time t commits, so an
// entry of t is the top of the chain. It is dropped when p is the root,
// whose version is the store's; it folds into p's entry when that is the
// one directly below (p's own version is superseded), and is renamed to p
// otherwise.
func (ls *lockState) inheritWrite(t, p tree.TID) {
	n := len(ls.chain) - 1
	if n < 0 || ls.chain[n].t != t {
		return
	}
	top := &ls.chain[n]
	if n > 0 && ls.chain[n-1].t == p {
		below := &ls.chain[n-1]
		below.st, below.dirty = top.st, below.dirty || top.dirty
	} else if p != tree.Root {
		top.t = p
		return
	} else if top.dirty && ls.memo.op != nil && !sameState(top.st, ls.Latest()) {
		ls.memo = readMemo{} // the store's latest is t's version only if t published it
	}
	*top = writeHolder{}
	ls.chain = ls.chain[:n]
}

// discardWrites drops the write locks and versions of t's descendants and
// reports whether there were any. The descendants of t in a chain are a
// suffix of it: whatever sits above a descendant of t descends from t too.
func (ls *lockState) discardWrites(t tree.TID) bool {
	for i := range ls.chain {
		if ls.chain[i].t.IsDescendantOf(t) {
			clear(ls.chain[i:])
			ls.chain = ls.chain[:i]
			ls.memo = readMemo{}
			return true
		}
	}
	return false
}

// ---- the per-tree records ----

// recLocked returns top's record, filing an empty one (from the free list
// when it has one) that the caller must fill at once. Caller holds sh.mu.
func (sh *shard) recLocked(top tree.TID) *treeRec {
	r := sh.trees[top]
	if r == nil {
		if n := len(sh.freeRecs); n > 0 {
			r, sh.freeRecs = sh.freeRecs[n-1], sh.freeRecs[:n-1]
		} else {
			r = new(treeRec)
		}
		if sh.trees == nil {
			sh.trees = make(map[tree.TID]*treeRec)
		}
		sh.trees[top] = r
	}
	return r
}

// emptiedLocked is called when one of the two lists of top's record r just
// became empty: the tree stops holding (or waiting) in this shard, and a
// record with nothing left is retired to the free list. Caller holds sh.mu.
func (sh *shard) emptiedLocked(top tree.TID, r *treeRec, which int) {
	sh.m.markShard(top, sh.id, which, false)
	if len(r.held)+len(r.waiters) == 0 {
		delete(sh.trees, top)
		sh.freeRecs = append(sh.freeRecs, r)
	}
}

// indexAddLocked records that t holds a lock on ls. Caller holds sh.mu.
func (sh *shard) indexAddLocked(t tree.TID, ls *lockState) {
	top := topOf(t)
	r := sh.recLocked(top)
	i := r.find(t)
	if i < 0 {
		if len(r.held) == 0 {
			sh.m.markShard(top, sh.id, held, true)
		}
		i = len(r.held)
		r.held = append(r.held, txLocks{t: t, set: sh.newSetLocked()})
	}
	r.held[i].set[ls] = struct{}{}
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

// recycleSetLocked empties a set no record refers to any more and keeps it
// for newSetLocked. The free list never holds more sets than were live in
// the shard at once. Caller holds sh.mu.
func (sh *shard) recycleSetLocked(s lockSet) {
	if len(s) > maxRecycledSet {
		return
	}
	clear(s)
	sh.freeSets = append(sh.freeSets, s)
}

// addReaderLocked gives t a read lock on ls, drawing ls's read set from
// the free list when t is its first reader. Caller holds sh.mu.
func (sh *shard) addReaderLocked(ls *lockState, t tree.TID) {
	if ls.read == nil {
		if n := len(sh.freeReads); n > 0 {
			ls.read, sh.freeReads = sh.freeReads[n-1], sh.freeReads[:n-1]
		} else {
			ls.read = make(tree.Set)
		}
	}
	ls.read.Add(t)
}

// releaseReadsLocked puts ls's read set back on the free list once its
// last reader is gone. The set is empty there, and ranging over or
// clearing an empty map costs nothing whatever it once held, so no size
// bound applies. Caller holds sh.mu.
func (sh *shard) releaseReadsLocked(ls *lockState) {
	if ls.read != nil && len(ls.read) == 0 {
		sh.freeReads = append(sh.freeReads, ls.read)
		ls.read = nil
	}
}

// ---- wait queues ----

// enqueueLocked appends w to its object's wait queue and its tree's
// waiter list. Caller holds sh.mu.
func (sh *shard) enqueueLocked(w *waiter) {
	ls := w.ls
	ls.queue = append(ls.queue, w)
	if len(ls.queue) == 1 {
		sh.m.met.ContendedObjects.Add(1)
	}
	sh.m.met.QueuedWaiters.Add(1)
	sh.m.met.AddShardQueued(sh.id, 1)
	top := topOf(w.tx)
	r := sh.recLocked(top)
	if len(r.waiters) == 0 {
		sh.m.markShard(top, sh.id, waiting, true)
	}
	r.waiters = append(r.waiters, w)
	if d := uint64(len(ls.queue)); d > sh.stats.MaxQueueDepth {
		sh.stats.MaxQueueDepth = d
	}
}

// unlistLocked deletes w from its tree's waiter list if it is there and
// reports whether it was. It is the only way out of the list — the waker,
// the victim election and the cancel all come through here — so a waiter
// that two of them reach leaves once. Caller holds sh.mu.
func (sh *shard) unlistLocked(w *waiter) bool {
	top := topOf(w.tx)
	r := sh.trees[top]
	if r == nil {
		return false
	}
	i := slices.Index(r.waiters, w)
	if i < 0 {
		return false
	}
	r.waiters = slices.Delete(r.waiters, i, i+1)
	if len(r.waiters) == 0 {
		sh.emptiedLocked(top, r, waiting)
	}
	return true
}

// dequeueLocked takes w off the books — its tree's waiter list and its
// object's queue — unless a waker already has. Caller holds sh.mu.
func (sh *shard) dequeueLocked(w *waiter) {
	if !sh.unlistLocked(w) {
		return
	}
	ls := w.ls
	i := slices.Index(ls.queue, w)
	ls.queue = slices.Delete(ls.queue, i, i+1)
	sh.m.met.QueuedWaiters.Add(-1)
	sh.m.met.AddShardQueued(sh.id, -1)
	if len(ls.queue) == 0 {
		sh.m.met.ContendedObjects.Add(-1)
	}
}

// wakeQueuedLocked wakes every waiter queued on ls — the targeted wakeup
// issued when ls's lock tables changed. Woken waiters rescan and requeue
// if still blocked. Caller holds sh.mu.
func (sh *shard) wakeQueuedLocked(ls *lockState) {
	for _, w := range ls.queue {
		close(w.wake)
		sh.stats.Wakeups++
		sh.unlistLocked(w)
	}
	if n := len(ls.queue); n > 0 {
		sh.m.met.QueuedWaiters.Add(-int64(n))
		sh.m.met.AddShardQueued(sh.id, -int64(n))
		sh.m.met.ContendedObjects.Add(-1)
	}
	ls.queue = nil
}

// grantLocked applies op, grants the access its lock, and immediately
// commits the access so the lock is inherited by tx. A read-only op equal
// to the memo's takes the memo's value without being applied; a write
// leaves the memo its read-back and the value it returned, or none.
// Caller holds sh.mu.
func (sh *shard) grantLocked(ls *lockState, tx, access tree.TID, op adt.Op, write bool) adt.Value {
	cur := ls.current()
	readOnly := op.ReadOnly()
	next, v := cur, ls.memo.v
	if !readOnly || op != ls.memo.op {
		next, v = op.Apply(cur)
		if !readOnly {
			ls.memo = readMemo{}
			if rb, ok := op.(adt.ReadBacker); ok {
				if r := rb.ReadBack(); memoizable(r) {
					ls.memo = readMemo{op: r, v: v}
				}
			}
		} else if memoizable(op) {
			ls.memo = readMemo{op: op, v: v}
		}
	}
	if write {
		n := len(ls.chain)
		if n == 0 || ls.chain[n-1].t != tx {
			ls.chain = append(ls.chain, writeHolder{t: tx})
			n++
		}
		top := &ls.chain[n-1]
		top.st = next
		top.dirty = top.dirty || !readOnly
	} else {
		sh.addReaderLocked(ls, tx)
	}
	sh.indexAddLocked(tx, ls)
	sh.m.rec.RecordAll(
		event.Event{Kind: event.RequestCommit, T: access, Value: v},
		event.Event{Kind: event.Commit, T: access},
		event.Event{Kind: event.InformCommitAt, T: access, Object: ls.Name()},
		event.Event{Kind: event.ReportCommit, T: access, Value: v},
	)
	return v
}

// holdsLocked reports whether t's entry in its tree's record lists ls;
// the root has neither. Caller holds sh.mu.
func (sh *shard) holdsLocked(t tree.TID, ls *lockState) (ok bool) {
	if t != tree.Root {
		r := sh.trees[topOf(t)]
		if i := r.find(t); i >= 0 {
			_, ok = r.held[i].set[ls]
		}
	}
	return ok
}

// checkLocked runs the single-shard invariants over objs, the lock states
// of the objects hashing to sh. Caller holds sh.mu.
func (sh *shard) checkLocked(objs []*lockState) error {
	queued := 0
	for _, ls := range objs {
		x := ls.Name()
		// Lemma 21 on the write side: every holder a proper descendant
		// of the one below, the first of the root (which has no entry),
		// a version for each.
		below := tree.Root
		for _, h := range ls.chain {
			if !below.IsProperAncestorOf(h.t) {
				return fmt.Errorf("lockmgr: %s: write-lockholder %s above %s, not its proper descendant", x, h.t, below)
			}
			if h.st == nil {
				return fmt.Errorf("lockmgr: %s: write-lockholder %s has no version", x, h.t)
			}
			for r := range ls.read {
				if !h.t.IsAncestorOf(r) && !r.IsAncestorOf(h.t) {
					return fmt.Errorf("lockmgr: %s: write holder %s unrelated to read holder %s", x, h.t, r)
				}
			}
			// Every lockholder must be listed by its tree.
			if !sh.holdsLocked(h.t, ls) {
				return fmt.Errorf("lockmgr: %s: write holder %s missing from its tree's record", x, h.t)
			}
			below = h.t
		}
		for r := range ls.read {
			if !sh.holdsLocked(r, ls) {
				return fmt.Errorf("lockmgr: %s: read holder %s missing from its tree's record", x, r)
			}
		}
		if ls.read != nil && len(ls.read) == 0 {
			return fmt.Errorf("lockmgr: %s keeps an empty read set", x)
		}
		// The memo is what its op returns from the current version.
		if op := ls.memo.op; op != nil {
			if !memoizable(op) {
				return fmt.Errorf("lockmgr: %s: memo keeps %s, not a read-only op of a comparable zero-size type", x, op)
			}
			v, err := applyTo(op, ls.current())
			if err != nil {
				return fmt.Errorf("lockmgr: %s: memo keeps %s: %w", x, op, err)
			}
			if !reflect.DeepEqual(v, ls.memo.v) {
				return fmt.Errorf("lockmgr: %s: memo says %s returns %v, the current version %s says %v", x, op, ls.memo.v, ls.current(), v)
			}
		}
		queued += len(ls.queue)
	}
	// Every record is non-empty and of one tree; every entry is backed by
	// locks; every set has one owner — no two entries share one, and a set
	// on the free list is empty, listed once and owned by no entry; every
	// listed waiter is queued, once, on an object of this shard.
	// A record has one owner too: a tree, or the free list, once.
	recOwner := make(map[*treeRec]tree.TID, len(sh.trees)+len(sh.freeRecs))
	for _, r := range sh.freeRecs {
		if _, dup := recOwner[r]; dup || len(r.held)+len(r.waiters) != 0 {
			return fmt.Errorf("lockmgr: shard %d free list holds a record twice, or one that is not empty", sh.id)
		}
		recOwner[r] = ""
	}
	owner := make(map[uintptr]tree.TID, len(sh.trees))
	listed := make(map[*waiter]struct{}, queued)
	for top, r := range sh.trees {
		if top.Parent() != tree.Root {
			return fmt.Errorf("lockmgr: shard %d keys a record by %s, not a top-level transaction", sh.id, top)
		}
		if u, shared := recOwner[r]; shared {
			return fmt.Errorf("lockmgr: shard %d: tree %s shares its record with %q (empty: the free list)", sh.id, top, u)
		}
		recOwner[r] = top
		if len(r.held)+len(r.waiters) == 0 {
			return fmt.Errorf("lockmgr: shard %d keeps an empty record for tree %s", sh.id, top)
		}
		for i, e := range r.held {
			if !top.IsAncestorOf(e.t) || r.find(e.t) != i {
				return fmt.Errorf("lockmgr: record of tree %s lists %s, a stranger or a duplicate", top, e.t)
			}
			if len(e.set) == 0 {
				return fmt.Errorf("lockmgr: empty lock set for %s", e.t)
			}
			id := reflect.ValueOf(e.set).Pointer()
			if u, shared := owner[id]; shared {
				return fmt.Errorf("lockmgr: %s and %s share one lock set", e.t, u)
			}
			owner[id] = e.t
			for ls := range e.set {
				if i := ShardOf(ls.Name(), len(sh.m.shards)); i != sh.id {
					return fmt.Errorf("lockmgr: shard %d lists %s's lock on %s, which hashes to shard %d", sh.id, e.t, ls.Name(), i)
				}
				if !ls.read.Has(e.t) && !ls.holdsWrite(e.t) {
					return fmt.Errorf("lockmgr: record of tree %s lists %s on %s without a lock", top, e.t, ls.Name())
				}
			}
		}
		for _, w := range r.waiters {
			if _, dup := listed[w]; dup || !top.IsAncestorOf(w.tx) || w.sh != sh || ShardOf(w.ls.Name(), len(sh.m.shards)) != sh.id || !slices.Contains(w.ls.queue, w) {
				return fmt.Errorf("lockmgr: tree %s lists a waiter of %s on %s that is listed twice, a stranger, or not queued in shard %d", top, w.tx, w.ls.Name(), sh.id)
			}
			listed[w] = struct{}{}
		}
	}
	// Distinct listed waiters, each on a queue, as many as are queued: the
	// lists and the queues hold the same waiters.
	if queued != len(listed) {
		return fmt.Errorf("lockmgr: shard %d has %d queued waiters but its trees list %d", sh.id, queued, len(listed))
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
	// A read set on the free list is empty, listed once, and no object's.
	reads := make(map[uintptr]string, len(objs)+len(sh.freeReads))
	for _, ls := range objs {
		if ls.read != nil {
			reads[reflect.ValueOf(ls.read).Pointer()] = ls.Name()
		}
	}
	for _, s := range sh.freeReads {
		if len(s) != 0 {
			return fmt.Errorf("lockmgr: shard %d free list holds a read set of %d readers", sh.id, len(s))
		}
		id := reflect.ValueOf(s).Pointer()
		if x, taken := reads[id]; taken {
			return fmt.Errorf("lockmgr: shard %d free list holds a read set already taken by %q (empty: the list itself)", sh.id, x)
		}
		reads[id] = ""
	}
	return nil
}

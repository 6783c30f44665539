package lockmgr

import (
	"strings"

	"nestedtx/internal/tree"
)

// The wait-for graph needs two kinds of edges. A waiter blocked by holder
// H is really waiting for every transaction from H up to (but excluding)
// lca(H, access) to commit — only then has the lock been inherited high
// enough to become an ancestor's — so a lock edge goes from the waiting
// transaction to each member of that chain. The access is a fresh child
// of the waiting transaction T, so lca(H, access) = lca(H, T), and the
// chain is computed from T (see Manager.Acquire). And a transaction cannot
// commit before its descendants return, so a structural edge goes from
// every proper ancestor of a waiting transaction down to it. Cycles in
// this combined graph are exactly the executions that cannot progress
// without an abort.
//
// The graph is never materialised: successors are enumerated on demand
// from the per-object queues (via each tree's list of waiters), and the
// search starts only from the transactions whose outgoing edges the
// triggering event changed — a new cycle must pass through one of them.
// Detection cost therefore scales with the reachable component of the
// change, not with the total number of waiters in the system.
//
// Under sharding the graph is partitioned too: a shard's records only
// know the wait edges of its own queues. The walk therefore runs in
// one of two modes. The local mode holds a single shard mutex and is
// sound only while every transaction it visits has all its tree's
// waiters in that shard — the striped waiting bits answer that in O(1)
// per node (treeConfined). The first unconfined node aborts the local
// walk before any of its possibly-missing edges could be followed, and
// the caller escalates: drop the shard mutex, take every shard mutex in
// ascending id order (the global shard-lock order), and rerun the same
// DFS over the union of all shards' records. Holding all shard mutexes
// makes the snapshot consistent across shards, and serialises escalated
// walks against each other and against every local walk, so each cycle
// still elects exactly one victim: two local walks in different shards
// can never see the same cycle (a cycle visible to a local walk has every
// member tree confined to that shard).

// graphView enumerates wait-for edges from either one shard's records
// (local, the shard's mutex held) or every shard's (escalated, all
// mutexes held), and walks them with w: the local shard's scratch, or
// the manager's when escalated.
type graphView struct {
	m     *Manager
	local *shard // nil in escalated mode
	w     *walk
}

// walk is the scratch a deadlock walk reuses, so a walk that finds no
// cycle allocates nothing once its buffers have grown: the transactions
// it has reached (true while on the path), the path as a stack of
// frames, the path's successor lists end to end, and the start list a
// grant beside queued waiters builds. Each shard keeps one for its local
// walks, guarded by its mutex; the manager keeps one for escalated
// walks, which hold every shard mutex. The map is made by the first walk.
type walk struct {
	seen   map[tree.TID]bool
	path   []frame
	succ   []tree.TID
	starts []tree.TID
}

// frame is one transaction on the walk's path: its successors are
// succ[lo:end], and succ[next] is the one to follow next.
type frame struct {
	t             tree.TID
	lo, next, end int
}

// maxKeptSeen is the most transactions a walk may have reached for its
// map to be kept: clear costs a map's capacity, which never shrinks, so
// one huge walk would otherwise tax every walk after it.
const maxKeptSeen = 64

// reset empties w for the next walk.
func (w *walk) reset() {
	if w.seen == nil || len(w.seen) > maxKeptSeen {
		w.seen = make(map[tree.TID]bool)
	} else {
		clear(w.seen)
	}
	w.path, w.succ = w.path[:0], w.succ[:0]
}

// eachWaiter calls f on every queued waiter of top's tree the view sees,
// oldest first within a shard. Both kinds of edge come from here: they
// never cross a top-level boundary, so one tree's list is all a node needs.
func (g graphView) eachWaiter(top tree.TID, f func(*waiter)) {
	shards := g.m.shards
	if g.local != nil {
		shards = []*shard{g.local}
	}
	for _, sh := range shards {
		if r := sh.trees[top]; r != nil {
			for _, w := range r.waiters {
				f(w)
			}
		}
	}
}

// succ appends t's wait-for successors to buf and returns it.
func (g graphView) succ(t tree.TID, buf []tree.TID) []tree.TID {
	// Lock edges: for each of t's waits, the holder chains that must
	// commit before the wait can be granted.
	g.eachWaiter(topOf(t), func(wt *waiter) {
		if wt.tx == t {
			buf = wt.ls.waitsFor(t, wt.write, buf)
		}
	})
	// Structural edges: t is gated on every waiting proper descendant.
	g.eachWaiter(topOf(t), func(wt *waiter) {
		if t.IsProperAncestorOf(wt.tx) {
			buf = append(buf, wt.tx)
		}
	})
	return buf
}

// waitsFor appends to buf the transactions a (write, when write is set)
// request of t on ls waits for: for every conflicting holder that is not
// an ancestor of t, the holder and its ancestors below lca(holder, t). It
// is empty exactly when ls does not block t.
func (ls *lockState) waitsFor(t tree.TID, write bool, buf []tree.TID) []tree.TID {
	addChain := func(holder tree.TID) {
		lca := tree.LCA(holder, t)
		for u := holder; u != lca; u = u.Parent() {
			buf = append(buf, u)
		}
	}
	for _, h := range ls.chain {
		if !h.t.IsAncestorOf(t) {
			addChain(h.t)
		}
	}
	if write {
		for u := range ls.read {
			if !u.IsAncestorOf(t) {
				addChain(u)
			}
		}
	}
	return buf
}

// detect looks for a wait-for cycle reachable from the start transactions
// and returns the chosen victim's waiter and the cycle, or nil. In local
// mode it additionally returns escalate=true (and no victim) the moment
// it reaches a transaction whose tree has waiters outside the local
// shard — the local view might be missing edges of that node, so only
// the all-shard walk can decide.
func (g graphView) detect(starts []tree.TID) (victim *waiter, cycle []tree.TID, escalate bool) {
	g.w.reset()
	for _, s := range starts {
		if cycle, escalate = g.dfs(s); cycle != nil || escalate {
			break
		}
	}
	if escalate || cycle == nil {
		return nil, nil, escalate
	}
	// Victim: the deepest transaction in the cycle that is actually
	// waiting, breaking level ties in favour of the latest sibling —
	// path components compare numerically, so T0.10 outranks T0.9.
	for _, t := range cycle {
		g.eachWaiter(topOf(t), func(cand *waiter) {
			if cand.tx != t {
				return
			}
			if victim == nil || cand.tx.Level() > victim.tx.Level() ||
				(cand.tx.Level() == victim.tx.Level() && tree.Compare(cand.tx, victim.tx) > 0) {
				victim = cand
			}
		})
	}
	return victim, cycle, false
}

// dfs walks depth first from s, skipping what earlier walks of the same
// detect reached, and returns the first cycle it closes — the path from
// the transaction it reached again — or escalate.
func (g graphView) dfs(s tree.TID) (cycle []tree.TID, escalate bool) {
	w := g.w
	if cycle, escalate = g.visit(s); cycle != nil || escalate {
		return cycle, escalate
	}
	for len(w.path) > 0 {
		f := &w.path[len(w.path)-1]
		if f.next == f.end {
			w.seen[f.t] = false
			w.succ = w.succ[:f.lo]
			w.path = w.path[:len(w.path)-1]
			continue
		}
		u := w.succ[f.next]
		f.next++
		if u == tree.Root {
			continue
		}
		if cycle, escalate = g.visit(u); cycle != nil || escalate {
			return cycle, escalate
		}
	}
	return nil, false
}

// visit reaches t: it returns the cycle t closes when t is on the path,
// nothing when an earlier path reached it, escalate when t's tree waits
// outside the local shard, and otherwise pushes t with its successors.
func (g graphView) visit(t tree.TID) (cycle []tree.TID, escalate bool) {
	w := g.w
	onPath, seen := w.seen[t]
	if onPath {
		// The flag is the record of being on the path; the scan only
		// finds where the cycle starts.
		i := len(w.path) - 1
		for i > 0 && w.path[i].t != t {
			i--
		}
		cycle = make([]tree.TID, 0, len(w.path)-i)
		for _, f := range w.path[i:] {
			cycle = append(cycle, f.t)
		}
		return cycle, false
	}
	if seen {
		return nil, false
	}
	if g.local != nil && !g.m.treeConfined(topOf(t), g.local.id) {
		return nil, true
	}
	w.seen[t] = true
	lo := len(w.succ)
	w.succ = g.succ(t, w.succ)
	w.path = append(w.path, frame{t: t, lo: lo, next: lo, end: len(w.succ)})
	return nil, false
}

// elect makes w the victim of cycle: it leaves its queue and wakes to
// its deadlock error. Caller holds w.sh.mu.
func (w *waiter) elect(cycle []tree.TID) {
	w.victim = &deadlockError{cycle}
	close(w.wake)
	w.sh.dequeueLocked(w)
	w.sh.stats.Deadlocks++
}

// deadlockError is a victim's error: it wraps ErrDeadlock and names the
// cycle. The cycle is spelled out only when the error is printed, so
// electing a victim costs one allocation and a waiter one pointer.
type deadlockError struct{ cycle []tree.TID }

func (e *deadlockError) Error() string {
	var b strings.Builder
	b.WriteString(ErrDeadlock.Error())
	b.WriteString(": cycle ")
	for i, t := range e.cycle {
		if i > 0 {
			b.WriteString(" → ")
		}
		b.WriteString(string(t))
	}
	return b.String()
}

func (e *deadlockError) Unwrap() error { return ErrDeadlock }

// breakCyclesLocked finds wait-for cycles reachable from the given start
// transactions within this shard and aborts one victim per cycle found.
// It returns true when the walk reached a transaction whose wait edges
// may leave the shard — the caller must then drop sh.mu and run
// breakCyclesGlobal with the same starts. Caller holds sh.mu.
func (sh *shard) breakCyclesLocked(starts []tree.TID) (escalate bool) {
	g := graphView{m: sh.m, local: sh, w: &sh.walk}
	for {
		victim, cycle, esc := g.detect(starts)
		if esc {
			return true
		}
		if victim == nil {
			return false
		}
		victim.elect(cycle)
	}
}

// breakCyclesGlobal is the escalated walk: it takes every shard mutex in
// ascending id order and runs detection over the union of all shards'
// waiter lists. Callers must hold no shard mutex.
func (m *Manager) breakCyclesGlobal(starts []tree.TID) {
	m.escalations.Add(1)
	for _, sh := range m.shards {
		sh.mu.Lock()
	}
	g := graphView{m: m, w: &m.walk}
	for {
		victim, cycle, _ := g.detect(starts)
		if victim == nil {
			break
		}
		victim.elect(cycle)
	}
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].mu.Unlock()
	}
}

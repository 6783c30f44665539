// Package checker decides serial correctness of concurrent schedules —
// the executable counterpart of the paper's main theorem.
//
// Theorem 34 states that every schedule of a R/W Locking system is
// serially correct for every non-orphan transaction T: its projection on T
// equals the projection on T of some serial schedule. The proof (Lemma 33)
// shows more: there is a serial schedule β *write-equivalent* to
// visible(α,T). The checker constructs such a β and verifies it:
//
//  1. compute vis = visible(α,T);
//  2. for every internal transaction P, order the visible children of P by
//     a precedence graph — conflicting accesses at shared objects order
//     sibling subtrees, and a report of one child before the creation
//     request of another orders their blocks — with ties broken by return
//     order in α and the live child (the one containing T) last;
//  3. emit β by a depth-first traversal: each child subtree becomes a
//     contiguous block closed by its COMMIT, interleaved with P's own
//     operations so that β|P = α|P;
//  4. validate β against the serial-system specification (scheduler
//     preconditions, object replay with value matching) and check
//     write-equivalence with vis.
//
// The lock rules of Moss' algorithm guarantee the precedence graph is
// acyclic on schedules of R/W Locking systems; a cycle or a validation
// failure means the input schedule is *not* serially correct by this
// construction, and Check retries with randomized topological tie-breaks
// before reporting failure. A successful Check is a machine-checked
// witness of the theorem's conclusion for that schedule and transaction.
package checker

import (
	"fmt"
	"math/rand"
	"reflect"

	"nestedtx/internal/adt"
	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/serial"
	"nestedtx/internal/tree"
)

// Witness is the evidence that a schedule is serially correct for a
// transaction.
type Witness struct {
	// T is the transaction checked.
	T tree.TID
	// Visible is visible(α,T).
	Visible event.Schedule
	// Serial is the constructed serial schedule, write-equivalent to
	// Visible.
	Serial event.Schedule
}

// retries is how many randomized tie-break attempts Check makes after the
// deterministic order fails.
const retries = 16

// Check verifies that concurrent schedule alpha is serially correct for
// non-orphan transaction t, returning a witness. It errors if t is an
// orphan in alpha (the theorem excludes orphans) or if no write-equivalent
// serial rearrangement is found.
func Check(alpha event.Schedule, st *event.SystemType, t tree.TID) (*Witness, error) {
	if alpha.IsOrphan(t) {
		return nil, fmt.Errorf("checker: %s is an orphan; serial correctness is only guaranteed for non-orphans", t)
	}
	vis := alpha.Visible(t)
	c := &constructor{alpha: alpha, st: st, target: t, vis: vis}
	c.analyze()

	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		var rng *rand.Rand
		if attempt > 0 {
			rng = rand.New(rand.NewSource(int64(attempt)))
		}
		beta, err := c.build(rng)
		if err != nil {
			lastErr = err
			continue
		}
		if err := verify(alpha, beta, vis, st, t); err != nil {
			lastErr = err
			continue
		}
		return &Witness{T: t, Visible: vis, Serial: beta}, nil
	}
	return nil, fmt.Errorf("checker: no serial rearrangement found for %s: %w", t, lastErr)
}

// verify performs the end-to-end validation of a candidate β.
func verify(alpha, beta, vis event.Schedule, st *event.SystemType, t tree.TID) error {
	if err := serial.Validate(beta, st); err != nil {
		return fmt.Errorf("candidate not a serial schedule: %w", err)
	}
	if !event.WriteEquivalent(st, beta, vis) {
		return fmt.Errorf("candidate not write-equivalent to visible(α,%s)", t)
	}
	if !alpha.AtTransaction(t).Equal(beta.AtTransaction(t)) {
		return fmt.Errorf("candidate changes the projection at %s", t)
	}
	return nil
}

// CheckAll runs Check for every transaction of Targets, returning the
// first failure.
func CheckAll(alpha event.Schedule, st *event.SystemType) error {
	for _, u := range Targets(alpha, st) {
		if _, err := Check(alpha, st, u); err != nil {
			return fmt.Errorf("checker: at %s: %w", u, err)
		}
	}
	return nil
}

// Targets lists the transactions Theorem 34 speaks for in alpha: the
// root and every non-orphan non-access transaction with events, in order
// of first appearance.
func Targets(alpha event.Schedule, st *event.SystemType) []tree.TID {
	seen := map[tree.TID]struct{}{tree.Root: {}}
	ts := []tree.TID{tree.Root}
	for _, e := range alpha {
		u, ok := event.TransactionOf(e)
		if !ok || st.IsAccess(u) {
			continue
		}
		if _, dup := seen[u]; dup {
			continue
		}
		seen[u] = struct{}{}
		if !alpha.IsOrphan(u) {
			ts = append(ts, u)
		}
	}
	return ts
}

// Certify machine-checks a recorded or recovered history: alpha must be
// well-formed, replay on the formal M(X) of every touched object (which
// re-validates each returned value), and be serially correct for every
// non-orphan transaction (Theorem 34). With want non-nil, each object of
// want must end in want[x]: replayed if touched, initial in st if not.
// When alpha∖INFORM validates as a serial schedule it is its own witness
// (α|T = β|T for every T), checked once in O(events) — a recovered log
// always is; otherwise CheckAll builds a witness per transaction.
func Certify(alpha event.Schedule, st *event.SystemType, mode core.Mode, want map[string]adt.State) error {
	groups, names, err := event.WFConcurrentAtObjects(alpha, st)
	if err != nil {
		return fmt.Errorf("checker: schedule not well-formed: %w", err)
	}
	for _, x := range names {
		lo, err := core.Replay(st, x, mode, groups[x])
		if err != nil {
			return fmt.Errorf("checker: schedule rejected at M(%s): %w", x, err)
		}
		if got := lo.CurrentState(); want != nil && !reflect.DeepEqual(got, want[x]) {
			return fmt.Errorf("checker: %s: replayed state %v != wanted %v", x, got, want[x])
		}
	}
	for x, w := range want {
		if init, _ := st.ObjectInitial(x); groups[x] == nil && !reflect.DeepEqual(init, w) {
			return fmt.Errorf("checker: %s: untouched, initial state %v != wanted %v", x, init, w)
		}
	}
	beta := alpha.Filter(func(e event.Event) bool {
		return e.Kind != event.InformCommitAt && e.Kind != event.InformAbortAt
	})
	if serial.Validate(beta, st) == nil {
		return nil
	}
	return CheckAll(alpha, st)
}

// constructor holds the per-check analysis shared across retry attempts.
type constructor struct {
	alpha  event.Schedule
	st     *event.SystemType
	target tree.TID
	vis    event.Schedule

	committed  map[tree.TID]bool // COMMIT(U) ∈ vis
	abortedVis map[tree.TID]bool // ABORT(U) ∈ vis
	returnPos  map[tree.TID]int  // position of COMMIT/ABORT in alpha
	fibers     map[tree.TID]event.Schedule
	// children[P] lists the children of P mentioned in vis, in first-
	// appearance order.
	children map[tree.TID][]tree.TID
	// perObject indexes the REQUEST_COMMIT access events of vis by
	// object, in vis order — shared by every childOrder call.
	perObject map[string][]event.Event
}

func (c *constructor) analyze() {
	c.committed = make(map[tree.TID]bool)
	c.abortedVis = make(map[tree.TID]bool)
	c.returnPos = make(map[tree.TID]int)
	c.fibers = make(map[tree.TID]event.Schedule)
	c.children = make(map[tree.TID][]tree.TID)
	c.perObject = make(map[string][]event.Event)
	for _, e := range c.vis {
		if e.Kind != event.RequestCommit {
			continue
		}
		if a, ok := c.st.AccessInfo(e.T); ok {
			c.perObject[a.Object] = append(c.perObject[a.Object], e)
		}
	}
	for i, e := range c.alpha {
		if e.Kind == event.Commit || e.Kind == event.Abort {
			if _, ok := c.returnPos[e.T]; !ok {
				c.returnPos[e.T] = i
			}
		}
	}
	seenChild := make(map[tree.TID]bool)
	noteChild := func(u tree.TID) {
		// Register u and every ancestor link above it so that blocks exist
		// for the whole path down from the root.
		for _, a := range u.Ancestors() {
			if a == tree.Root {
				continue
			}
			if !seenChild[a] {
				seenChild[a] = true
				p := a.Parent()
				c.children[p] = append(c.children[p], a)
			}
		}
	}
	for _, e := range c.vis {
		switch e.Kind {
		case event.Commit:
			c.committed[e.T] = true
			noteChild(e.T)
		case event.Abort:
			c.abortedVis[e.T] = true
			noteChild(e.T)
		default:
			if u, ok := event.TransactionOf(e); ok {
				noteChild(u)
				if e.Kind == event.RequestCreate {
					noteChild(e.T)
				}
			}
		}
		// Fibers hold only the operations of the transaction *automata*
		// (COMMIT/ABORT are scheduler-internal; the constructor places
		// them itself, right after each child's block).
		if e.Kind != event.Commit && e.Kind != event.Abort {
			if u, ok := event.TransactionOf(e); ok {
				c.fibers[u] = append(c.fibers[u], e)
			}
		}
	}
}

// hasBlock reports whether child u gets a contiguous subtree block in β:
// committed children do, and so does the live child on the path to the
// target.
func (c *constructor) hasBlock(u tree.TID) bool {
	if c.committed[u] {
		return true
	}
	return u.IsAncestorOf(c.target) && !c.abortedVis[u]
}

// build constructs a candidate serial schedule. rng, when non-nil,
// randomizes topological tie-breaking.
func (c *constructor) build(rng *rand.Rand) (event.Schedule, error) {
	var out event.Schedule
	if err := c.emit(tree.Root, &out, rng); err != nil {
		return nil, err
	}
	return out, nil
}

// emit appends the block of transaction p (its CREATE through its
// REQUEST_COMMIT, with child blocks inserted) to out.
func (c *constructor) emit(p tree.TID, out *event.Schedule, rng *rand.Rand) error {
	fiber := c.fibers[p]
	if c.st.IsAccess(p) {
		*out = append(*out, fiber...)
		return nil
	}
	order, err := c.childOrder(p, rng)
	if err != nil {
		return err
	}
	emitted := make(map[tree.TID]bool)
	// emitUpTo emits blocks in Γ order until u's block (inclusive) is out.
	// If u's block is already out there is nothing to do — emitting past it
	// could create blocks whose REQUEST_CREATE has not been issued yet.
	emitUpTo := func(u tree.TID) error {
		if u != "" && emitted[u] {
			return nil
		}
		for _, v := range order {
			if emitted[v] {
				continue
			}
			emitted[v] = true
			if err := c.emit(v, out, rng); err != nil {
				return err
			}
			if c.committed[v] {
				*out = append(*out, event.Event{Kind: event.Commit, T: v})
			}
			if v == u {
				return nil
			}
		}
		if u != "" && !emitted[u] {
			return fmt.Errorf("checker: block for %s not in child order of %s", u, p)
		}
		return nil
	}
	for _, e := range fiber {
		switch e.Kind {
		case event.ReportCommit:
			if err := emitUpTo(e.T); err != nil {
				return err
			}
		case event.ReportAbort:
			// ABORT(e.T) was emitted right after REQUEST_CREATE(e.T).
		}
		*out = append(*out, e)
		if e.Kind == event.RequestCreate && c.abortedVis[e.T] && !c.hasBlock(e.T) {
			*out = append(*out, event.Event{Kind: event.Abort, T: e.T})
		}
	}
	// Flush remaining blocks (children committed in α but unreported, and
	// the live child containing the target). Child blocks emitted after
	// REQUEST_COMMIT(p,v) are legal serial behaviour: the scheduler waits
	// for all requested children to return before COMMIT(p), which the
	// caller appends right after this block.
	return emitUpTo("")
}

// childOrder computes Γ: the visible children of p with blocks, ordered by
// the precedence graph with deterministic (or randomized) tie-breaking.
func (c *constructor) childOrder(p tree.TID, rng *rand.Rand) ([]tree.TID, error) {
	var nodes []tree.TID
	for _, u := range c.children[p] {
		if c.hasBlock(u) {
			nodes = append(nodes, u)
		}
	}
	if len(nodes) <= 1 {
		return nodes, nil
	}
	idx := make(map[tree.TID]int, len(nodes))
	for i, u := range nodes {
		idx[u] = i
	}
	succ := make([][]int, len(nodes))
	indeg := make([]int, len(nodes))
	addEdge := func(a, b tree.TID) {
		i, okA := idx[a]
		j, okB := idx[b]
		if !okA || !okB || i == j {
			return
		}
		succ[i] = append(succ[i], j)
		indeg[j]++
	}

	// (a) Conflict edges: REQUEST_COMMIT pairs at a shared object in
	// different sibling subtrees, at least one a write, ordered as in vis.
	// Linear edge construction: chaining each access to the previous write
	// and each write to the reads since then has the same transitive
	// closure as the all-pairs constraint set (read-read pairs impose
	// nothing), without the quadratic blowup on long schedules. The
	// per-object access index is built once per Check (analyze), not per
	// interior transaction.
	perObject := c.perObject
	govern := func(u tree.TID) (tree.TID, bool) {
		if p.IsProperAncestorOf(u) {
			return p.ChildToward(u), true
		}
		return "", false
	}
	type governed struct {
		g    tree.TID
		read bool
	}
	for _, seq := range perObject {
		// Constraints only order accesses governed by children of p, so
		// the segment construction runs on that subsequence (the all-pairs
		// set never mentioned the others).
		var gs []governed
		for _, e := range seq {
			if g, ok := govern(e.T); ok {
				gs = append(gs, governed{g: g, read: c.st.IsReadAccess(e.T)})
			}
		}
		lastWrite := -1
		var reads []int
		for j, ge := range gs {
			if ge.read {
				if lastWrite >= 0 {
					addEdge(gs[lastWrite].g, ge.g)
				}
				reads = append(reads, j)
				continue
			}
			if lastWrite >= 0 {
				addEdge(gs[lastWrite].g, ge.g)
			}
			for _, r := range reads {
				addEdge(gs[r].g, ge.g)
			}
			lastWrite = j
			reads = reads[:0]
		}
	}

	// (b) Fiber-order edges: if p saw the report of u before requesting v,
	// u's block must precede v's.
	reportedAt := make(map[tree.TID]int)
	requestedAt := make(map[tree.TID]int)
	for i, e := range c.fibers[p] {
		switch e.Kind {
		case event.ReportCommit, event.ReportAbort:
			if _, ok := reportedAt[e.T]; !ok {
				reportedAt[e.T] = i
			}
		case event.RequestCreate:
			requestedAt[e.T] = i
		}
	}
	for _, u := range nodes {
		ru, ok := reportedAt[u]
		if !ok {
			continue
		}
		for _, v := range nodes {
			if qv, ok := requestedAt[v]; ok && ru < qv {
				addEdge(u, v)
			}
		}
	}

	// Tie-break priority: return position in α (live child last), or
	// random on retry.
	prio := make([]int64, len(nodes))
	for i, u := range nodes {
		if pos, ok := c.returnPos[u]; ok && c.committed[u] {
			prio[i] = int64(pos)
		} else {
			prio[i] = int64(len(c.alpha)) + 1 // live: after everything
		}
		if rng != nil {
			prio[i] = rng.Int63n(int64(len(nodes)) * 16)
			if !c.committed[u] {
				prio[i] += int64(len(nodes)) * 16 // live child still last
			}
		}
	}

	// Kahn's algorithm with a priority queue (linear scan; sibling counts
	// are small).
	var order []tree.TID
	done := make([]bool, len(nodes))
	for len(order) < len(nodes) {
		best := -1
		for i := range nodes {
			if done[i] || indeg[i] > 0 {
				continue
			}
			if best < 0 || prio[i] < prio[best] {
				best = i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("checker: precedence cycle among children of %s", p)
		}
		done[best] = true
		order = append(order, nodes[best])
		for _, j := range succ[best] {
			indeg[j]--
		}
	}
	return order, nil
}

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
//  2. for every internal transaction P, order the committed children of P
//     by a precedence graph — conflicting accesses at shared objects order
//     sibling subtrees, and a report of one child before the creation
//     request of another orders their blocks — with ties broken by return
//     order in α. A transaction visible to T keeps its whole projection
//     (Lemma 9), so this order Γ is the same for every T and is computed
//     once per schedule; the live child containing T, which still holds
//     every lock its subtree took, follows it;
//  3. emit β by a depth-first traversal: each child subtree becomes a
//     contiguous block closed by its COMMIT, interleaved with P's own
//     operations so that β|P = α|P;
//  4. validate β against the serial-system specification (scheduler
//     preconditions, object replay with value matching) and check
//     write-equivalence with vis.
//
// The lock rules of Moss' algorithm guarantee the precedence graph is
// acyclic on schedules of R/W Locking systems; a cycle or a validation
// failure means the input schedule is *not* serially correct, and Check
// reports it. A successful Check is a machine-checked witness of the
// theorem's conclusion for that schedule and transaction; [BruteForce]
// is the exhaustive reference it is tested against.
package checker

import (
	"fmt"
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

// Check verifies that concurrent schedule alpha is serially correct for
// non-orphan transaction t, returning a witness. It errors if t is an
// orphan in alpha (the theorem excludes orphans) or if no write-equivalent
// serial rearrangement is found.
func Check(alpha event.Schedule, st *event.SystemType, t tree.TID) (*Witness, error) {
	return analyze(alpha, st).check(t)
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
// first failure. The analysis of alpha, and each sibling order Γ, is
// shared by every target.
func CheckAll(alpha event.Schedule, st *event.SystemType) error {
	c := analyze(alpha, st)
	for _, u := range Targets(alpha, st) {
		if _, err := c.check(u); err != nil {
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

// constructor holds the analysis of one schedule, shared by every target.
type constructor struct {
	alpha event.Schedule
	st    *event.SystemType

	committed map[tree.TID]bool // COMMIT(U) ∈ α
	aborted   map[tree.TID]bool // ABORT(U) ∈ α
	// fibers[U] is α|U: the operations of transaction automaton U
	// (COMMIT/ABORT are scheduler-internal; the constructor places them
	// itself, right after each child's block).
	fibers map[tree.TID]event.Schedule
	// children[P] lists the committed children of P in return order.
	children map[tree.TID][]tree.TID
	// reached[P][X] lists, in α order, the accesses to X that committed
	// to P, each as the child of P it came through.
	reached map[tree.TID]map[string][]reach
	// gamma memoizes childOrder.
	gamma map[tree.TID][]tree.TID
}

// reach is an access seen from an ancestor: the child it came through and
// whether it reads.
type reach struct {
	child tree.TID
	read  bool
}

// analyze builds the target-independent analysis of alpha.
func analyze(alpha event.Schedule, st *event.SystemType) *constructor {
	c := &constructor{
		alpha:     alpha,
		st:        st,
		committed: make(map[tree.TID]bool),
		aborted:   make(map[tree.TID]bool),
		fibers:    make(map[tree.TID]event.Schedule),
		children:  make(map[tree.TID][]tree.TID),
		reached:   make(map[tree.TID]map[string][]reach),
		gamma:     make(map[tree.TID][]tree.TID),
	}
	for _, e := range alpha {
		switch e.Kind {
		case event.Commit:
			if !c.committed[e.T] {
				c.committed[e.T] = true
				p := e.T.Parent()
				c.children[p] = append(c.children[p], e.T)
			}
		case event.Abort:
			c.aborted[e.T] = true
		default:
			if u, ok := event.TransactionOf(e); ok {
				c.fibers[u] = append(c.fibers[u], e)
			}
		}
	}
	// Walk each access's chain of COMMITs upward: the access reaches every
	// ancestor its effects were passed to.
	for _, e := range alpha {
		a, ok := st.AccessInfo(e.T)
		if e.Kind != event.RequestCommit || !ok {
			continue
		}
		r := reach{read: st.IsReadAccess(e.T)}
		for u := e.T; c.committed[u]; u = u.Parent() {
			p := u.Parent()
			if c.reached[p] == nil {
				c.reached[p] = make(map[string][]reach)
			}
			r.child = u
			c.reached[p][a.Object] = append(c.reached[p][a.Object], r)
		}
	}
	return c
}

// check constructs and verifies the witness for target t.
func (c *constructor) check(t tree.TID) (*Witness, error) {
	for _, a := range t.Ancestors() {
		if c.aborted[a] {
			return nil, fmt.Errorf("checker: %s is an orphan; serial correctness is only guaranteed for non-orphans", t)
		}
	}
	vis := c.alpha.Visible(t)
	beta := make(event.Schedule, 0, len(vis))
	err := c.emit(tree.Root, t, &beta)
	if err == nil {
		err = verify(c.alpha, beta, vis, c.st, t)
	}
	if err != nil {
		return nil, fmt.Errorf("checker: no serial rearrangement found for %s: %w", t, err)
	}
	return &Witness{T: t, Visible: vis, Serial: beta}, nil
}

// emit appends the block of transaction p (its CREATE through its
// REQUEST_COMMIT, with child blocks inserted) to out. Its children with
// blocks are Γ, then the live child on the path to target.
func (c *constructor) emit(p, target tree.TID, out *event.Schedule) error {
	fiber := c.fibers[p]
	if c.st.IsAccess(p) {
		*out = append(*out, fiber...)
		return nil
	}
	order, err := c.childOrder(p)
	if err != nil {
		return err
	}
	if p.IsProperAncestorOf(target) {
		if u := p.ChildToward(target); !c.committed[u] && !c.aborted[u] {
			order = append(order[:len(order):len(order)], u)
		}
	}
	emitted := make(map[tree.TID]bool)
	// emitUpTo emits blocks in order until u's block (inclusive) is out.
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
			if err := c.emit(v, target, out); err != nil {
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
		if e.Kind == event.ReportCommit {
			if err := emitUpTo(e.T); err != nil {
				return err
			}
		}
		*out = append(*out, e)
		// An aborted child has no block: its ABORT follows its request.
		if e.Kind == event.RequestCreate && c.aborted[e.T] && !c.committed[e.T] {
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

// childOrder computes Γ: the committed children of p ordered by the
// precedence graph, ties broken by return order. It is memoized: Γ does
// not depend on the target.
func (c *constructor) childOrder(p tree.TID) ([]tree.TID, error) {
	if order, ok := c.gamma[p]; ok {
		return order, nil
	}
	nodes := c.children[p]
	if len(nodes) <= 1 {
		c.gamma[p] = nodes
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

	// (a) Conflict edges: accesses that reached p at a shared object
	// through different children, at least one a write, ordered as in α.
	// Linear edge construction: chaining each access to the previous write
	// and each write to the reads since then has the same transitive
	// closure as the all-pairs constraint set (read-read pairs impose
	// nothing), without the quadratic blowup on long schedules.
	for _, seq := range c.reached[p] {
		lastWrite := -1
		var reads []int
		for j, r := range seq {
			if lastWrite >= 0 {
				addEdge(seq[lastWrite].child, r.child)
			}
			if r.read {
				reads = append(reads, j)
				continue
			}
			for _, k := range reads {
				addEdge(seq[k].child, r.child)
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

	// Kahn's algorithm; nodes are in return order, so taking the first
	// ready node breaks ties by return position in α.
	order := make([]tree.TID, 0, len(nodes))
	done := make([]bool, len(nodes))
	for len(order) < len(nodes) {
		best := -1
		for i := range nodes {
			if !done[i] && indeg[i] == 0 {
				best = i
				break
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
	c.gamma[p] = order
	return order, nil
}

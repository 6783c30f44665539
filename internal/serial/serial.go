// Package serial implements the serial scheduler (§3.3), whose state the
// generic scheduler (§5.2) shares, and the serial system validator (§3.4).
//
// The serial scheduler is the one fully specified automaton of the serial
// system: it runs the children of each transaction sequentially (no
// concurrency between siblings) according to a depth-first traversal of the
// transaction tree, and may abort a transaction only before it is created.
// Serial schedules are the correctness specification: a concurrent system
// is correct if its schedules look like serial schedules to each (non-
// orphan) transaction.
package serial

import (
	"fmt"
	"maps"

	"nestedtx/internal/event"
	"nestedtx/internal/object"
	"nestedtx/internal/tree"
)

// Scheduler is a scheduler automaton's state: the six sets of §3.3,
// commitRequested mapping each transaction to its requested value. The
// generic scheduler of §5.2 has the same state and the same effects and
// differs only in its preconditions, so both schedulers are this type,
// each with its own precondition set: enabled below, and
// generic.NewScheduler's.
type Scheduler struct {
	pre Preconditions

	createRequested tree.Set
	created         tree.Set
	commitRequested map[tree.TID]event.Value
	committed       tree.Set
	aborted         tree.Set
	returned        tree.Set
	// Derived per-parent counters for O(1) precondition checks on long
	// schedules (the set scans are kept for error messages only).
	createdOpen   map[tree.TID]int // children created but not returned
	requestedOpen map[tree.TID]int // children create-requested but not returned
}

// Preconditions is a scheduler's precondition set: it checks e against
// s's state. Input operations (REQUEST_CREATE, REQUEST_COMMIT) are always
// enabled; for output operations the error explains which precondition
// fails.
type Preconditions func(s *Scheduler, e event.Event) error

// NewScheduler returns the serial scheduler in its initial state.
func NewScheduler() *Scheduler { return New(enabled) }

// New returns a scheduler with preconditions pre in its initial state:
// create-requested = {T0}, all other sets empty.
func New(pre Preconditions) *Scheduler {
	return &Scheduler{
		pre:             pre,
		createRequested: tree.NewSet(tree.Root),
		created:         tree.NewSet(),
		commitRequested: make(map[tree.TID]event.Value),
		committed:       tree.NewSet(),
		aborted:         tree.NewSet(),
		returned:        tree.NewSet(),
		createdOpen:     make(map[tree.TID]int),
		requestedOpen:   make(map[tree.TID]int),
	}
}

// Committed reports whether COMMIT(t) has occurred.
func (s *Scheduler) Committed(t tree.TID) bool { return s.committed.Has(t) }

// Aborted reports whether ABORT(t) has occurred.
func (s *Scheduler) Aborted(t tree.TID) bool { return s.aborted.Has(t) }

// Created reports whether CREATE(t) has occurred.
func (s *Scheduler) Created(t tree.TID) bool { return s.created.Has(t) }

// Returned reports whether t has returned (committed or aborted).
func (s *Scheduler) Returned(t tree.TID) bool { return s.returned.Has(t) }

// CreateRequested reports whether REQUEST_CREATE(t) has occurred (or t is
// the root).
func (s *Scheduler) CreateRequested(t tree.TID) bool { return s.createRequested.Has(t) }

// CommitValue returns the value with which t requested commit.
func (s *Scheduler) CommitValue(t tree.TID) (event.Value, bool) {
	v, ok := s.commitRequested[t]
	return v, ok
}

// Enabled checks the precondition of e in the current state.
func (s *Scheduler) Enabled(e event.Event) error { return s.pre(s, e) }

// enabled is the serial scheduler's precondition set (§3.3).
func enabled(s *Scheduler, e event.Event) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("serial scheduler: %s: %s", e, fmt.Sprintf(format, args...))
	}
	switch e.Kind {
	case event.RequestCreate, event.RequestCommit:
		return nil // inputs are always enabled
	case event.Create:
		t := e.T
		if !s.createRequested.Has(t) {
			return fail("creation not requested")
		}
		if s.created.Has(t) {
			return fail("already created")
		}
		if s.aborted.Has(t) {
			return fail("already aborted")
		}
		// siblings(T) ∩ created ⊆ returned: siblings are run sequentially.
		if sib, ok := s.createdSiblingNotReturned(t); ok {
			return fail("sibling %s created but not returned", sib)
		}
		return nil
	case event.Commit:
		t := e.T
		if t == tree.Root {
			return fail("the root does not commit")
		}
		if _, ok := s.commitRequested[t]; !ok {
			return fail("commit not requested")
		}
		if s.returned.Has(t) {
			return fail("already returned")
		}
		// children(T) ∩ create-requested ⊆ returned.
		if c, ok := s.RequestedChildNotReturned(t); ok {
			return fail("child %s requested but not returned", c)
		}
		return nil
	case event.Abort:
		t := e.T
		if t == tree.Root {
			return fail("the root does not abort")
		}
		if !s.createRequested.Has(t) {
			return fail("creation not requested")
		}
		if s.created.Has(t) {
			return fail("serial scheduler aborts only transactions that were never created")
		}
		if s.aborted.Has(t) {
			return fail("already aborted")
		}
		if sib, ok := s.createdSiblingNotReturned(t); ok {
			return fail("sibling %s created but not returned", sib)
		}
		return nil
	case event.ReportCommit:
		t := e.T
		if t == tree.Root {
			return fail("no reports for the root")
		}
		if !s.committed.Has(t) {
			return fail("not committed")
		}
		if v, ok := s.commitRequested[t]; !ok || v != e.Value {
			return fail("value %v was not the requested commit value", e.Value)
		}
		return nil
	case event.ReportAbort:
		if e.T == tree.Root {
			return fail("no reports for the root")
		}
		if !s.aborted.Has(e.T) {
			return fail("not aborted")
		}
		return nil
	default:
		return fail("not an operation of the serial scheduler")
	}
}

func (s *Scheduler) createdSiblingNotReturned(t tree.TID) (tree.TID, bool) {
	p := t.Parent()
	open := s.createdOpen[p]
	if s.created.Has(t) && !s.returned.Has(t) {
		open-- // t itself does not block its own operation
	}
	if open <= 0 {
		return "", false
	}
	for u := range s.created {
		if u != t && u.Parent() == p && !s.returned.Has(u) {
			return u, true
		}
	}
	return "", false
}

// RequestedChildNotReturned returns a child of t that was create-requested
// and has not returned, if there is one: both schedulers' COMMIT(t)
// precondition is that there is none.
func (s *Scheduler) RequestedChildNotReturned(t tree.TID) (tree.TID, bool) {
	if s.requestedOpen[t] <= 0 {
		return "", false
	}
	for u := range s.createRequested {
		if u.Parent() == t && !s.returned.Has(u) {
			return u, true
		}
	}
	return "", false
}

// Apply performs the state change of e (the postcondition). It does not
// check preconditions; callers should call Enabled first for output
// operations.
func (s *Scheduler) Apply(e event.Event) {
	switch e.Kind {
	case event.RequestCreate:
		if !s.createRequested.Has(e.T) {
			s.createRequested.Add(e.T)
			if !s.returned.Has(e.T) {
				s.requestedOpen[e.T.Parent()]++
			}
		}
	case event.RequestCommit:
		if _, ok := s.commitRequested[e.T]; !ok {
			s.commitRequested[e.T] = e.Value
		}
	case event.Create:
		if !s.created.Has(e.T) {
			s.created.Add(e.T)
			if !s.returned.Has(e.T) {
				s.createdOpen[e.T.Parent()]++
			}
		}
	case event.Commit:
		s.markReturned(e.T)
		s.committed.Add(e.T)
	case event.Abort:
		s.markReturned(e.T)
		s.aborted.Add(e.T)
	}
	// Report and inform operations have no postcondition (no state change).
}

func (s *Scheduler) markReturned(t tree.TID) {
	if s.returned.Has(t) {
		return
	}
	s.returned.Add(t)
	p := t.Parent()
	if s.created.Has(t) {
		s.createdOpen[p]--
	}
	if s.createRequested.Has(t) {
		s.requestedOpen[p]--
	}
}

// Step checks e's precondition and applies it.
func (s *Scheduler) Step(e event.Event) error {
	if err := s.Enabled(e); err != nil {
		return err
	}
	s.Apply(e)
	return nil
}

// PendingCreates returns the transactions whose CREATE is enabled and
// which have not returned.
func (s *Scheduler) PendingCreates() []tree.TID {
	var out []tree.TID
	for t := range s.createRequested {
		if !s.created.Has(t) && !s.returned.Has(t) && s.Enabled(event.Event{Kind: event.Create, T: t}) == nil {
			out = append(out, t)
		}
	}
	return out
}

// CommittableTransactions returns transactions whose COMMIT is enabled.
func (s *Scheduler) CommittableTransactions() []tree.TID {
	var out []tree.TID
	for t := range s.commitRequested {
		if s.Enabled(event.Event{Kind: event.Commit, T: t}) == nil {
			out = append(out, t)
		}
	}
	return out
}

// AbortableTransactions returns transactions whose ABORT is enabled.
func (s *Scheduler) AbortableTransactions() []tree.TID {
	var out []tree.TID
	for t := range s.createRequested {
		if t != tree.Root && !s.returned.Has(t) && s.Enabled(event.Event{Kind: event.Abort, T: t}) == nil {
			out = append(out, t)
		}
	}
	return out
}

// Validate checks that s is a serial schedule of the given system type:
//
//   - every event is a serial operation (no INFORM events),
//   - the serial scheduler's preconditions hold at each output step,
//   - the projection at each basic object is a schedule of the object
//     (responses carry exactly the values the data type yields), and
//   - the whole sequence is well-formed (Lemma 5 says this is implied, so a
//     violation indicates the sequence is not a serial schedule).
//
// Transactions are otherwise black boxes, so any well-formed transaction
// behaviour is admissible.
func Validate(sched event.Schedule, st *event.SystemType) error {
	sc := NewScheduler()
	objs := make(map[string]*object.Basic)
	for _, x := range sched.TouchedObjects(st) {
		b, err := object.New(st, x)
		if err != nil {
			return err
		}
		objs[x] = b
	}
	for i, e := range sched {
		if e.Kind == event.InformCommitAt || e.Kind == event.InformAbortAt {
			return fmt.Errorf("serial: event %d %s: not a serial operation", i, e)
		}
		if err := sc.Step(e); err != nil {
			return fmt.Errorf("serial: event %d: %w", i, err)
		}
		// Access CREATE / REQUEST_COMMIT also step the object automaton.
		if a, ok := st.AccessInfo(e.T); ok && (e.Kind == event.Create || e.Kind == event.RequestCommit) {
			if err := objs[a.Object].Step(e); err != nil {
				return fmt.Errorf("serial: event %d: %w", i, err)
			}
		}
	}
	if err := event.WFSerial(sched, st); err != nil {
		return fmt.Errorf("serial: %w", err)
	}
	return nil
}

// SeriallyCorrectFor reports whether concurrent schedule alpha is serially
// correct for transaction t given a candidate serial schedule beta (§3.5):
// beta must be a serial schedule and alpha|t == beta|t.
func SeriallyCorrectFor(alpha, beta event.Schedule, st *event.SystemType, t tree.TID) error {
	if err := Validate(beta, st); err != nil {
		return fmt.Errorf("serial: candidate is not a serial schedule: %w", err)
	}
	if !alpha.AtTransaction(t).Equal(beta.AtTransaction(t)) {
		return fmt.Errorf("serial: projections at %s differ", t)
	}
	return nil
}

// Clone returns a deep copy of the scheduler state, for search algorithms
// that need to backtrack.
func (s *Scheduler) Clone() *Scheduler {
	return &Scheduler{
		pre:             s.pre,
		createRequested: s.createRequested.Clone(),
		created:         s.created.Clone(),
		commitRequested: maps.Clone(s.commitRequested),
		committed:       s.committed.Clone(),
		aborted:         s.aborted.Clone(),
		returned:        s.returned.Clone(),
		createdOpen:     maps.Clone(s.createdOpen),
		requestedOpen:   maps.Clone(s.requestedOpen),
	}
}

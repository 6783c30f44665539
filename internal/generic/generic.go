// Package generic implements the generic scheduler of §5.2.
//
// The generic scheduler is highly nondeterministic: it passes creation
// requests and responses between transactions and objects with arbitrary
// delay, may unilaterally abort any requested transaction that has not
// returned, and informs R/W Locking objects of transaction fates. Unlike
// the serial scheduler it lets siblings run concurrently and lets
// transactions abort after performing work.
package generic

import (
	"fmt"

	"nestedtx/internal/event"
	"nestedtx/internal/serial"
	"nestedtx/internal/tree"
)

// Scheduler is the generic scheduler automaton's state: the same six sets
// as the serial scheduler, with the same effects, under the §5.2 (weaker)
// preconditions.
type Scheduler = serial.Scheduler

// NewScheduler returns the generic scheduler in its initial state.
func NewScheduler() *Scheduler { return serial.New(enabled) }

// enabled is the generic scheduler's precondition set (§5.2).
func enabled(s *Scheduler, e event.Event) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("generic scheduler: %s: %s", e, fmt.Sprintf(format, args...))
	}
	switch e.Kind {
	case event.RequestCreate, event.RequestCommit:
		return nil // inputs always enabled
	case event.Create:
		if !s.CreateRequested(e.T) {
			return fail("creation not requested")
		}
		if s.Created(e.T) {
			return fail("already created")
		}
		return nil
	case event.Commit:
		t := e.T
		if t == tree.Root {
			return fail("the root does not commit")
		}
		if _, ok := s.CommitValue(t); !ok {
			return fail("commit not requested")
		}
		if s.Returned(t) {
			return fail("already returned")
		}
		if c, ok := s.RequestedChildNotReturned(t); ok {
			return fail("child %s requested but not returned", c)
		}
		return nil
	case event.Abort:
		t := e.T
		if t == tree.Root {
			return fail("the root does not abort")
		}
		if !s.CreateRequested(t) {
			return fail("creation not requested")
		}
		if s.Returned(t) {
			return fail("already returned")
		}
		return nil
	case event.ReportCommit:
		if !s.Committed(e.T) {
			return fail("not committed")
		}
		if v, ok := s.CommitValue(e.T); !ok || v != e.Value {
			return fail("value %v was not the requested commit value", e.Value)
		}
		return nil
	case event.ReportAbort:
		if !s.Aborted(e.T) {
			return fail("not aborted")
		}
		return nil
	case event.InformCommitAt:
		if !s.Committed(e.T) {
			return fail("not committed")
		}
		return nil
	case event.InformAbortAt:
		if !s.Aborted(e.T) {
			return fail("not aborted")
		}
		return nil
	default:
		return fail("unknown operation kind")
	}
}

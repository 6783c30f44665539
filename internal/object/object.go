// Package object implements basic object automata (§3.2) and the
// equieffectiveness/transparency test harness (§4).
//
// A basic object follows the paper's §4.3 example: its state is a set of
// pending accesses plus an instance of an abstract data type. CREATE(T)
// adds T to pending; at any time a pending T may be chosen, its operation
// applied to the instance (atomically yielding the return value), and
// REQUEST_COMMIT(T,v) output.
//
// Because the data types in internal/adt are deterministic, whether a
// sequence is a schedule of the object — and which values responses carry —
// is decidable by replay, which is what Replay does. The equieffectiveness
// of two schedules (§4.1: indistinguishable by any later well-formed
// continuation) is tested by probing with continuations.
package object

import (
	"fmt"

	"nestedtx/internal/adt"
	"nestedtx/internal/event"
	"nestedtx/internal/tree"
)

// Basic is a basic object automaton for object x of system type st.
type Basic struct {
	st    *event.SystemType
	x     string
	state adt.State
	// pending holds created-but-unresponded accesses in creation order.
	pending []tree.TID
	// done records accesses that have been responded to.
	done map[tree.TID]bool
	// created records accesses that have been created.
	created map[tree.TID]bool
}

// New returns a basic object automaton for x in its initial state.
func New(st *event.SystemType, x string) (*Basic, error) {
	init, ok := st.ObjectInitial(x)
	if !ok {
		return nil, fmt.Errorf("object: %q not defined in system type", x)
	}
	return &Basic{
		st:      st,
		x:       x,
		state:   init,
		done:    make(map[tree.TID]bool),
		created: make(map[tree.TID]bool),
	}, nil
}

// Name returns the object's name.
func (b *Basic) Name() string { return b.x }

// State returns the current data-type instance.
func (b *Basic) State() adt.State { return b.state }

// EnabledAccesses returns the pending accesses in creation order: a basic
// object may respond to any of them.
func (b *Basic) EnabledAccesses() []tree.TID {
	out := make([]tree.TID, len(b.pending))
	copy(out, b.pending)
	return out
}

// Create handles the input operation CREATE(t). Inputs are always enabled
// (the Input Condition); Create returns an error only when t is not an
// access to this object or the input violates well-formedness, which the
// environment is required to preserve.
func (b *Basic) Create(t tree.TID) error {
	a, ok := b.st.AccessInfo(t)
	if !ok || a.Object != b.x {
		return fmt.Errorf("object %s: CREATE(%s): not an access to this object", b.x, t)
	}
	if b.created[t] {
		return fmt.Errorf("object %s: CREATE(%s): duplicate create (ill-formed input)", b.x, t)
	}
	b.created[t] = true
	b.pending = append(b.pending, t)
	return nil
}

// Respond performs the output REQUEST_COMMIT(t,v) for a pending access t:
// it applies t's operation to the instance and returns the response event.
func (b *Basic) Respond(t tree.TID) (event.Event, error) {
	if !b.created[t] || b.done[t] {
		return event.Event{}, fmt.Errorf("object %s: REQUEST_COMMIT for %s not enabled (pending required)", b.x, t)
	}
	a, _ := b.st.AccessInfo(t)
	next, v := a.Op.Apply(b.state)
	b.state = next
	b.done[t] = true
	for i, p := range b.pending {
		if p == t {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			break
		}
	}
	return event.Event{Kind: event.RequestCommit, T: t, Value: v}, nil
}

// Step applies one event of the object's signature, checking that it is a
// legal step: CREATE is applied as an input; REQUEST_COMMIT(t,v) is legal
// only if t is pending and replaying t's operation yields exactly v.
func (b *Basic) Step(e event.Event) error {
	switch e.Kind {
	case event.Create:
		return b.Create(e.T)
	case event.RequestCommit:
		if !b.created[e.T] || b.done[e.T] {
			return fmt.Errorf("object %s: %s: access not pending", b.x, e)
		}
		a, ok := b.st.AccessInfo(e.T)
		if !ok || a.Object != b.x {
			return fmt.Errorf("object %s: %s: not an access to this object", b.x, e)
		}
		next, v := a.Op.Apply(b.state)
		if v != e.Value {
			return fmt.Errorf("object %s: %s: value mismatch (object would return %v)", b.x, e, v)
		}
		b.state = next
		b.done[e.T] = true
		for i, p := range b.pending {
			if p == e.T {
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				break
			}
		}
		return nil
	default:
		return fmt.Errorf("object %s: %s: not an operation of a basic object", b.x, e)
	}
}

// Replay checks whether s is a schedule of object x (s should be the
// projection at x). It returns the automaton state reached, or an error
// describing the first illegal step.
func Replay(st *event.SystemType, x string, s event.Schedule) (*Basic, error) {
	b, err := New(st, x)
	if err != nil {
		return nil, err
	}
	for i, e := range s {
		if err := b.Step(e); err != nil {
			return nil, fmt.Errorf("object: replay step %d: %w", i, err)
		}
	}
	return b, nil
}

// IsSchedule reports whether s is a schedule of object x.
func IsSchedule(st *event.SystemType, x string, s event.Schedule) bool {
	_, err := Replay(st, x, s)
	return err == nil
}

// Equieffective tests whether schedules alpha and beta of object x are
// equieffective (§4.1) with respect to the given probe continuations: for
// every probe φ such that both αφ and βφ are well-formed, αφ is a schedule
// iff βφ is. Probes that would make either side ill-formed are skipped, per
// the definition. The test is sound but (like any testing of a universally
// quantified property) complete only relative to the probe set.
func Equieffective(st *event.SystemType, x string, alpha, beta event.Schedule, probes []event.Schedule) bool {
	for _, phi := range probes {
		ac := append(alpha.Clone(), phi...)
		bc := append(beta.Clone(), phi...)
		if event.WFObject(ac, st, x) != nil || event.WFObject(bc, st, x) != nil {
			continue
		}
		if IsSchedule(st, x, ac) != IsSchedule(st, x, bc) {
			return false
		}
	}
	return true
}

// Transparent tests whether the final event π of schedule alphaPi is
// transparent after its prefix (§4.1): απ must be equieffective to α, with
// respect to the probes — later operations cannot detect whether π
// happened. alphaPi must be a well-formed schedule of x.
func Transparent(st *event.SystemType, x string, alphaPi event.Schedule, probes []event.Schedule) bool {
	if len(alphaPi) == 0 {
		return true
	}
	alpha := alphaPi[:len(alphaPi)-1]
	return Equieffective(st, x, alphaPi, alpha, probes)
}

// Clone returns a deep copy of the automaton, for search algorithms that
// need to backtrack. States are immutable, so only the bookkeeping is
// copied.
func (b *Basic) Clone() *Basic {
	c := &Basic{
		st:      b.st,
		x:       b.x,
		state:   b.state,
		pending: append([]tree.TID(nil), b.pending...),
		done:    make(map[tree.TID]bool, len(b.done)),
		created: make(map[tree.TID]bool, len(b.created)),
	}
	for k, v := range b.done {
		c.done[k] = v
	}
	for k, v := range b.created {
		c.created[k] = v
	}
	return c
}

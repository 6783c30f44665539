package event

import (
	"fmt"
	"sort"

	"nestedtx/internal/tree"
)

// WFError describes a well-formedness violation: which rule failed, at
// which position, for which component.
type WFError struct {
	Component string // "transaction T", "object X", "lock object M(X)"
	Index     int    // position of the offending event in the sequence
	Event     Event
	Rule      string
}

func (e *WFError) Error() string {
	return fmt.Sprintf("event: %s: event %d %s violates well-formedness: %s",
		e.Component, e.Index, e.Event, e.Rule)
}

// WFTransaction checks the §3.1 well-formedness conditions on a sequence of
// operations of non-access transaction t. The sequence should already be
// the projection at t (use Schedule.AtTransaction).
func WFTransaction(s Schedule, t tree.TID) error {
	created := false
	requestedCommit := false
	requestedChildren := make(map[tree.TID]bool)
	reported := make(map[tree.TID]Event) // child -> first report operation seen
	fail := func(i int, rule string) error {
		return &WFError{Component: "transaction " + string(t), Index: i, Event: s[i], Rule: rule}
	}
	for i, e := range s {
		if !isOpOfTransaction(e, t) {
			return fail(i, "not an operation of this transaction")
		}
		switch e.Kind {
		case Create:
			if created {
				return fail(i, "duplicate CREATE")
			}
			created = true
		case ReportCommit:
			if !requestedChildren[e.T] {
				return fail(i, "REPORT_COMMIT for child whose creation was not requested")
			}
			if prev, ok := reported[e.T]; ok {
				if prev.Kind == ReportAbort {
					return fail(i, "REPORT_COMMIT after REPORT_ABORT for same child")
				}
				if prev.Value != e.Value {
					return fail(i, "REPORT_COMMIT with conflicting value for same child")
				}
			} else {
				reported[e.T] = e
			}
		case ReportAbort:
			if !requestedChildren[e.T] {
				return fail(i, "REPORT_ABORT for child whose creation was not requested")
			}
			if prev, ok := reported[e.T]; ok && prev.Kind == ReportCommit {
				return fail(i, "REPORT_ABORT after REPORT_COMMIT for same child")
			}
			reported[e.T] = e
		case RequestCreate:
			if requestedChildren[e.T] {
				return fail(i, "duplicate REQUEST_CREATE for child")
			}
			if requestedCommit {
				return fail(i, "REQUEST_CREATE after REQUEST_COMMIT")
			}
			if !created {
				return fail(i, "REQUEST_CREATE before CREATE")
			}
			requestedChildren[e.T] = true
		case RequestCommit:
			if requestedCommit {
				return fail(i, "duplicate REQUEST_COMMIT")
			}
			if !created {
				return fail(i, "REQUEST_COMMIT before CREATE")
			}
			requestedCommit = true
		}
	}
	return nil
}

// WFObject checks the §3.2 well-formedness conditions on a sequence of
// operations of basic object x: no access created twice, no access
// responded to twice or before creation. The sequence should already be
// the projection at x (use Schedule.AtObject).
func WFObject(s Schedule, st *SystemType, x string) error {
	created := make(map[tree.TID]bool)
	responded := make(map[tree.TID]bool)
	fail := func(i int, rule string) error {
		return &WFError{Component: "object " + x, Index: i, Event: s[i], Rule: rule}
	}
	for i, e := range s {
		a, ok := st.accesses[e.T]
		if !ok || a.Object != x {
			return fail(i, "not an access to this object")
		}
		switch e.Kind {
		case Create:
			if created[e.T] {
				return fail(i, "duplicate CREATE for access")
			}
			created[e.T] = true
		case RequestCommit:
			if responded[e.T] {
				return fail(i, "duplicate REQUEST_COMMIT for access")
			}
			if !created[e.T] {
				return fail(i, "REQUEST_COMMIT before CREATE")
			}
			responded[e.T] = true
		default:
			return fail(i, "operation kind not of a basic object")
		}
	}
	return nil
}

// Pending returns the accesses to x that are pending in s: created but not
// yet responded to (§3.2). s should be well-formed at x.
func Pending(s Schedule, st *SystemType, x string) []tree.TID {
	created := make(map[tree.TID]bool)
	var order []tree.TID
	for _, e := range s.AtObject(st, x) {
		switch e.Kind {
		case Create:
			created[e.T] = true
			order = append(order, e.T)
		case RequestCommit:
			created[e.T] = false
		}
	}
	var out []tree.TID
	for _, t := range order {
		if created[t] {
			out = append(out, t)
		}
	}
	return out
}

// WFLockObject checks the §5.1 well-formedness conditions on a sequence of
// operations of R/W Locking object M(x). The sequence should already be the
// projection at M(x) (use Schedule.AtLockObject).
func WFLockObject(s Schedule, st *SystemType, x string) error {
	created := make(map[tree.TID]bool)
	responded := make(map[tree.TID]bool)
	informedCommit := make(map[tree.TID]bool)
	informedAbort := make(map[tree.TID]bool)
	fail := func(i int, rule string) error {
		return &WFError{Component: "lock object M(" + x + ")", Index: i, Event: s[i], Rule: rule}
	}
	for i, e := range s {
		switch e.Kind {
		case Create:
			if a, ok := st.accesses[e.T]; !ok || a.Object != x {
				return fail(i, "CREATE for non-access to this object")
			}
			if created[e.T] {
				return fail(i, "duplicate CREATE for access")
			}
			created[e.T] = true
		case RequestCommit:
			if responded[e.T] {
				return fail(i, "duplicate REQUEST_COMMIT for access")
			}
			if !created[e.T] {
				return fail(i, "REQUEST_COMMIT before CREATE")
			}
			responded[e.T] = true
		case InformCommitAt:
			if e.Object != x {
				return fail(i, "INFORM for different object")
			}
			if informedAbort[e.T] {
				return fail(i, "INFORM_COMMIT after INFORM_ABORT for same transaction")
			}
			if st.IsAccess(e.T) {
				a := st.accesses[e.T]
				if a.Object == x && !responded[e.T] {
					return fail(i, "INFORM_COMMIT for access to this object before its REQUEST_COMMIT")
				}
			}
			informedCommit[e.T] = true
		case InformAbortAt:
			if e.Object != x {
				return fail(i, "INFORM for different object")
			}
			if informedCommit[e.T] {
				return fail(i, "INFORM_ABORT after INFORM_COMMIT for same transaction")
			}
			informedAbort[e.T] = true
		default:
			return fail(i, "operation kind not of a lock object")
		}
	}
	return nil
}

// WFSerial checks that a sequence of serial operations is well-formed: its
// projection at every transaction and basic object is well-formed (§3.4).
// Only transactions and objects with events in s are checked (projections
// at untouched components are empty, hence trivially well-formed).
//
// Both WF checks compute every projection in one grouping pass over s
// rather than filtering once per component — the checks run on every
// serial candidate the S9 checker builds, so the (components × events)
// form was a dominant cost on large histories.
func WFSerial(s Schedule, st *SystemType) error {
	if err := wfTransactions(s, st); err != nil {
		return err
	}
	groups, names := groupAtObjects(s, st, false)
	for _, x := range names {
		if err := WFObject(groups[x], st, x); err != nil {
			return err
		}
	}
	return nil
}

// WFConcurrent checks that a sequence of concurrent operations is
// well-formed: its projection at every transaction and R/W Locking object
// is well-formed (§5.3).
func WFConcurrent(s Schedule, st *SystemType) error {
	_, _, err := WFConcurrentAtObjects(s, st)
	return err
}

// WFConcurrentAtObjects is WFConcurrent returning what it checked:
// groups[x] = s.AtLockObject(st, x) for every touched x in names, sorted.
func WFConcurrentAtObjects(s Schedule, st *SystemType) (groups map[string]Schedule, names []string, err error) {
	if err := wfTransactions(s, st); err != nil {
		return nil, nil, err
	}
	groups, names = groupAtObjects(s, st, true)
	for _, x := range names {
		if err := WFLockObject(groups[x], st, x); err != nil {
			return nil, nil, err
		}
	}
	return groups, names, nil
}

// wfTransactions checks WFTransaction for every non-access transaction
// with operations in s, grouping the per-transaction projections in one
// pass (groups[t] equals s.AtTransaction(t)).
func wfTransactions(s Schedule, st *SystemType) error {
	groups := make(map[tree.TID]Schedule)
	for _, e := range s {
		switch e.Kind {
		case Create, RequestCommit:
			groups[e.T] = append(groups[e.T], e)
		case RequestCreate, ReportCommit, ReportAbort:
			p := e.T.Parent()
			groups[p] = append(groups[p], e)
		}
	}
	for _, t := range transactionsIn(s, st) {
		if err := WFTransaction(groups[t], t); err != nil {
			return err
		}
	}
	return nil
}

// groupAtObjects groups s by object in one pass: with lock false each
// group equals s.AtObject(st, x), with lock true s.AtLockObject(st, x).
// names lists the objects with a non-empty group, sorted (an object
// touched only by INFORM events has an empty basic projection).
func groupAtObjects(s Schedule, st *SystemType, lock bool) (map[string]Schedule, []string) {
	groups := make(map[string]Schedule)
	for _, e := range s {
		switch e.Kind {
		case Create, RequestCommit:
			if a, ok := st.accesses[e.T]; ok {
				groups[a.Object] = append(groups[a.Object], e)
			}
		case InformCommitAt, InformAbortAt:
			if lock {
				groups[e.Object] = append(groups[e.Object], e)
			}
		}
	}
	names := make([]string, 0, len(groups))
	for x := range groups {
		names = append(names, x)
	}
	sort.Strings(names)
	return groups, names
}

// transactionsIn returns the non-access transactions that have operations
// in s.
func transactionsIn(s Schedule, st *SystemType) []tree.TID {
	seen := make(map[tree.TID]struct{})
	var out []tree.TID
	for _, e := range s {
		t, ok := TransactionOf(e)
		if !ok || st.IsAccess(t) {
			continue
		}
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	return out
}

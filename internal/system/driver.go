package system

import (
	"fmt"
	"math/rand"
	"sort"

	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/generic"
	"nestedtx/internal/object"
	"nestedtx/internal/serial"
	"nestedtx/internal/tree"
)

// DriverConfig controls a seeded run of the composed system.
type DriverConfig struct {
	// Seed drives all nondeterministic choices; equal seeds give equal
	// schedules.
	Seed int64
	// AbortProb is the per-step probability that the scheduler chooses to
	// abort some live transaction instead of a normal step.
	AbortProb float64
	// Mode selects read/write or exclusive lock classification for the
	// concurrent run.
	Mode core.Mode
	// ContainOrphans makes the scheduler stop delivering work to orphans:
	// no CREATE of, response to, or output from a transaction whose
	// ancestor has aborted. The paper notes (§3.5) that guaranteeing
	// consistent views to orphans "requires a much more intricate
	// scheduler" and defers the algorithms to [HLMW]; this option is the
	// simplest member of that family — orphans are frozen the moment the
	// abort happens, so they never observe post-abort state.
	ContainOrphans bool
}

// maxSteps bounds a run of the driver.
const maxSteps = 1 << 20

// RunConcurrent executes the R/W Locking system — scripted transactions,
// M(X) objects, generic scheduler — resolving nondeterminism with the
// seed, and returns the concurrent schedule.
func (sys *System) RunConcurrent(cfg DriverConfig) (event.Schedule, error) {
	sched, _, err := sys.RunConcurrentInspect(cfg)
	return sched, err
}

// RunConcurrentInspect is RunConcurrent but also returns the final M(X)
// automata, so tests can check lock-table invariants and final states.
func (sys *System) RunConcurrentInspect(cfg DriverConfig) (event.Schedule, map[string]*core.LockObject, error) {
	d, locks, err := sys.lockingDriver(cfg)
	if err != nil {
		return nil, nil, err
	}
	sched, err := d.run()
	return sched, locks, err
}

// RunSerial executes the serial system — the same scripted transactions
// with basic objects and the serial scheduler — and returns the serial
// schedule. abortProb gives the probability that the driver aborts a
// requested-but-uncreated transaction (the only aborts the serial
// scheduler allows) instead of taking a normal step.
func (sys *System) RunSerial(seed int64, abortProb float64) (event.Schedule, error) {
	objs := make(map[string]objectAutomaton)
	for _, x := range sys.st.Objects() {
		b, err := object.New(sys.st, x)
		if err != nil {
			return nil, err
		}
		objs[x] = b
	}
	return sys.newDriver(DriverConfig{Seed: seed, AbortProb: abortProb}, serial.NewScheduler(), objs).run()
}

// lockingDriver composes the R/W Locking system (§5.3): M(X) objects in
// cfg.Mode and the generic scheduler. It also returns the M(X) automata.
func (sys *System) lockingDriver(cfg DriverConfig) (*driver, map[string]*core.LockObject, error) {
	locks := make(map[string]*core.LockObject)
	objs := make(map[string]objectAutomaton)
	for _, x := range sys.st.Objects() {
		m, err := core.NewLockObject(sys.st, x, cfg.Mode)
		if err != nil {
			return nil, nil, err
		}
		locks[x], objs[x] = m, m
	}
	return sys.newDriver(cfg, generic.NewScheduler(), objs), locks, nil
}

// objectAutomaton is an object component of the composition: a basic
// object (object.Basic) in the serial system, M(X) (core.LockObject) in
// the R/W Locking system.
type objectAutomaton interface {
	Create(t tree.TID) error
	Respond(t tree.TID) (event.Event, error)
	EnabledAccesses() []tree.TID
}

// informed is an object that takes the scheduler's INFORM inputs: M(X)
// does, a basic object does not.
type informed interface {
	InformCommit(t tree.TID) error
	InformAbort(t tree.TID) error
}

// driver runs one composition of the scripted transaction automata with a
// scheduler and objects: the serial system (serial scheduler, basic
// objects) or the R/W Locking system (generic scheduler, M(X) objects).
type driver struct {
	sys   *System
	cfg   DriverConfig
	rng   *rand.Rand
	sched *serial.Scheduler // the serial or the generic preconditions
	txs   map[tree.TID]*txState
	objs  map[string]objectAutomaton
	// txOrder and objOrder are the transactions and objects, sorted: the
	// order candidates are listed in.
	txOrder  []*txState
	objOrder []string

	// touched[t] is the set of objects some descendant access of t has run
	// at; INFORM candidates are generated only for touched objects that
	// take informs (the scheduler may legally inform any object, but only
	// these matter).
	touched map[tree.TID]map[string]struct{}
	// reportsDelivered / informsDelivered avoid repeating deliverable-many-
	// times operations.
	reportsDelivered map[tree.TID]struct{}
	informsDelivered map[informKey]struct{}

	out event.Schedule
}

type informKey struct {
	x string
	t tree.TID
}

func (sys *System) newDriver(cfg DriverConfig, sched *serial.Scheduler, objs map[string]objectAutomaton) *driver {
	d := &driver{
		sys:              sys,
		cfg:              cfg,
		rng:              rand.New(rand.NewSource(cfg.Seed)),
		sched:            sched,
		txs:              make(map[tree.TID]*txState, len(sys.programs)),
		objs:             objs,
		objOrder:         sys.st.Objects(),
		touched:          make(map[tree.TID]map[string]struct{}),
		reportsDelivered: make(map[tree.TID]struct{}),
		informsDelivered: make(map[informKey]struct{}),
	}
	for _, t := range sys.Transactions() {
		tx := newTxState(t, sys.programs[t])
		d.txs[t] = tx
		d.txOrder = append(d.txOrder, tx)
	}
	sort.Strings(d.objOrder)
	return d
}

func (d *driver) run() (event.Schedule, error) {
	return d.runWith(func(cands, aborts []event.Event) (event.Event, bool) {
		switch {
		case len(cands) == 0 && len(aborts) == 0:
			return event.Event{}, false
		case len(cands) == 0:
			// Stuck: only aborts can make progress (a lock-wait cycle, i.e.
			// deadlock). The generic scheduler resolves it by aborting.
			return aborts[d.rng.Intn(len(aborts))], true
		case len(aborts) > 0 && d.rng.Float64() < d.cfg.AbortProb:
			return aborts[d.rng.Intn(len(aborts))], true
		default:
			return cands[d.rng.Intn(len(cands))], true
		}
	})
}

// runWith drives the composition with an externally supplied choice
// policy: pick receives the enabled non-abort candidates and the enabled
// aborts (both deterministically ordered) and returns the next operation,
// or ok=false to end the run. Used by the seeded policy above and by the
// exhaustive enumerator.
func (d *driver) runWith(pick func(cands, aborts []event.Event) (event.Event, bool)) (event.Schedule, error) {
	for len(d.out) < maxSteps {
		cands := d.candidates()
		aborts := d.abortCandidates()
		e, ok := pick(cands, aborts)
		if !ok {
			return d.out, nil
		}
		if err := d.apply(e); err != nil {
			return d.out, fmt.Errorf("system: driver: %w", err)
		}
	}
	return d.out, fmt.Errorf("system: driver: step budget %d exhausted", maxSteps)
}

// isOrphan reports whether some ancestor of t has been aborted.
func (d *driver) isOrphan(t tree.TID) bool {
	for _, u := range t.Ancestors() {
		if d.sched.Aborted(u) {
			return true
		}
	}
	return false
}

// candidates gathers every enabled non-abort output operation of every
// component, in a deterministic order.
func (d *driver) candidates() []event.Event {
	var out []event.Event
	contained := func(t tree.TID) bool {
		return d.cfg.ContainOrphans && d.isOrphan(t)
	}
	// Transaction outputs (REQUEST_CREATE, REQUEST_COMMIT of non-access).
	for _, tx := range d.txOrder {
		if contained(tx.id) {
			continue
		}
		out = append(out, tx.enabledOutputs()...)
	}
	// Object outputs (REQUEST_COMMIT of accesses). The value is computed
	// at apply time; candidates carry only the identity.
	for _, x := range d.objOrder {
		ts := d.objs[x].EnabledAccesses()
		sortTIDs(ts)
		for _, t := range ts {
			if contained(t) {
				continue
			}
			out = append(out, event.Event{Kind: event.RequestCommit, T: t, Object: x})
		}
	}
	// Scheduler outputs.
	sch := d.sched
	for _, t := range sortedSet(sch.PendingCreates()) {
		if contained(t) {
			continue
		}
		out = append(out, event.Event{Kind: event.Create, T: t})
	}
	for _, t := range sortedSet(sch.CommittableTransactions()) {
		out = append(out, event.Event{Kind: event.Commit, T: t})
	}
	// Reports (each delivered once; an orphaned parent receives none when
	// containment is on).
	for _, tx := range d.txOrder {
		if contained(tx.id) {
			continue
		}
		for i := range tx.prog.Children {
			c := tx.id.Child(i)
			if _, done := d.reportsDelivered[c]; done {
				continue
			}
			if sch.Committed(c) {
				if v, ok := sch.CommitValue(c); ok {
					out = append(out, event.Event{Kind: event.ReportCommit, T: c, Value: v})
				}
			} else if sch.Aborted(c) {
				out = append(out, event.Event{Kind: event.ReportAbort, T: c})
			}
		}
	}
	// Informs (each delivered once, only to touched objects).
	out = append(out, d.informCandidates()...)
	return out
}

func (d *driver) informCandidates() []event.Event {
	var out []event.Event
	var ts []tree.TID
	for t := range d.touched {
		ts = append(ts, t)
	}
	sortTIDs(ts)
	for _, t := range ts {
		if t == tree.Root {
			continue
		}
		var kind event.Kind
		switch {
		case d.sched.Committed(t):
			kind = event.InformCommitAt
		case d.sched.Aborted(t):
			kind = event.InformAbortAt
		default:
			continue
		}
		var xs []string
		for x := range d.touched[t] {
			xs = append(xs, x)
		}
		sort.Strings(xs)
		for _, x := range xs {
			if _, done := d.informsDelivered[informKey{x, t}]; !done {
				out = append(out, event.Event{Kind: kind, T: t, Object: x})
			}
		}
	}
	return out
}

// abortCandidates returns the enabled ABORT operations for transactions
// other than the root.
func (d *driver) abortCandidates() []event.Event {
	var out []event.Event
	for _, t := range sortedSet(d.sched.AbortableTransactions()) {
		out = append(out, event.Event{Kind: event.Abort, T: t})
	}
	return out
}

// apply performs e at every component that shares it and appends it to the
// schedule.
func (d *driver) apply(e event.Event) error {
	switch e.Kind {
	case event.RequestCreate:
		tx := d.txs[e.T.Parent()]
		tx.requested[childIndex(e.T)] = true
		d.sched.Apply(e)
	case event.RequestCommit:
		if a, isAccess := d.sys.st.AccessInfo(e.T); isAccess {
			obj := d.objs[a.Object]
			resp, err := obj.Respond(e.T)
			if err != nil {
				return err
			}
			e = resp // carries the computed value
			if _, ok := obj.(informed); ok {
				d.markTouched(e.T, a.Object)
			}
		} else {
			d.txs[e.T].requestedCommit = true
		}
		d.sched.Apply(e)
	case event.Create:
		if err := d.sched.Step(e); err != nil {
			return err
		}
		if a, isAccess := d.sys.st.AccessInfo(e.T); isAccess {
			if err := d.objs[a.Object].Create(e.T); err != nil {
				return err
			}
		} else {
			d.txs[e.T].handleCreate()
		}
	case event.Commit, event.Abort:
		if err := d.sched.Step(e); err != nil {
			return err
		}
	case event.ReportCommit, event.ReportAbort:
		if err := d.sched.Step(e); err != nil {
			return err
		}
		d.reportsDelivered[e.T] = struct{}{}
		if parent, ok := d.txs[e.T.Parent()]; ok {
			parent.handleReport(e.T, e.Kind == event.ReportCommit)
		}
	case event.InformCommitAt, event.InformAbortAt:
		if err := d.sched.Step(e); err != nil {
			return err
		}
		d.informsDelivered[informKey{e.Object, e.T}] = struct{}{}
		// Only the generic scheduler informs, and only M(X) objects.
		m := d.objs[e.Object].(informed)
		if e.Kind == event.InformCommitAt {
			if err := m.InformCommit(e.T); err != nil {
				return err
			}
			// The lock (and the touch) moves to the parent.
			d.markTouched(e.T.Parent(), e.Object)
		} else if err := m.InformAbort(e.T); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown event %s", e)
	}
	d.out = append(d.out, stripDriverFields(e))
	return nil
}

// markTouched records that t's subtree has activity at object x, for every
// proper ancestor of t as well (their commits must be forwarded to x for
// locks to keep flowing upward).
func (d *driver) markTouched(t tree.TID, x string) {
	for _, u := range t.Ancestors() {
		m := d.touched[u]
		if m == nil {
			m = make(map[string]struct{})
			d.touched[u] = m
		}
		m[x] = struct{}{}
	}
}

// stripDriverFields removes bookkeeping fields that are not part of the
// formal operation (the Object tag on access REQUEST_COMMIT candidates).
func stripDriverFields(e event.Event) event.Event {
	if e.Kind == event.RequestCommit {
		e.Object = ""
	}
	return e
}

func sortedSet(ts []tree.TID) []tree.TID {
	sortTIDs(ts)
	return ts
}

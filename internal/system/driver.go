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

// maxSteps bounds a run of either driver.
const maxSteps = 1 << 20

// RunConcurrent executes the R/W Locking system — scripted transactions,
// M(X) objects, generic scheduler — resolving nondeterminism with the
// seed, and returns the concurrent schedule.
func (sys *System) RunConcurrent(cfg DriverConfig) (event.Schedule, error) {
	d, err := newConcurrentDriver(sys, cfg)
	if err != nil {
		return nil, err
	}
	return d.run()
}

type concurrentDriver struct {
	sys   *System
	cfg   DriverConfig
	rng   *rand.Rand
	sched *generic.Scheduler
	txs   map[tree.TID]*txState
	objs  map[string]*core.LockObject

	// touched[t] is the set of objects some descendant access of t has run
	// at; INFORM candidates are generated only for touched objects (the
	// scheduler may legally inform any object, but only these matter).
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

func newConcurrentDriver(sys *System, cfg DriverConfig) (*concurrentDriver, error) {
	d := &concurrentDriver{
		sys:              sys,
		cfg:              cfg,
		rng:              rand.New(rand.NewSource(cfg.Seed)),
		sched:            generic.NewScheduler(),
		txs:              make(map[tree.TID]*txState),
		objs:             make(map[string]*core.LockObject),
		touched:          make(map[tree.TID]map[string]struct{}),
		reportsDelivered: make(map[tree.TID]struct{}),
		informsDelivered: make(map[informKey]struct{}),
	}
	for t, p := range sys.programs {
		d.txs[t] = newTxState(t, p)
	}
	for _, x := range sys.st.Objects() {
		m, err := core.NewLockObject(sys.st, x, cfg.Mode)
		if err != nil {
			return nil, err
		}
		d.objs[x] = m
	}
	return d, nil
}

func (d *concurrentDriver) run() (event.Schedule, error) {
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
func (d *concurrentDriver) runWith(pick func(cands, aborts []event.Event) (event.Event, bool)) (event.Schedule, error) {
	for len(d.out) < maxSteps {
		cands := d.candidates()
		aborts := d.abortCandidates()
		e, ok := pick(cands, aborts)
		if !ok {
			return d.out, nil
		}
		if err := d.apply(e); err != nil {
			return d.out, fmt.Errorf("system: concurrent driver: %w", err)
		}
	}
	return d.out, fmt.Errorf("system: concurrent driver: step budget %d exhausted", maxSteps)
}

// isOrphan reports whether some ancestor of t has been aborted.
func (d *concurrentDriver) isOrphan(t tree.TID) bool {
	for _, u := range t.Ancestors() {
		if d.sched.Aborted(u) {
			return true
		}
	}
	return false
}

// candidates gathers every enabled non-abort output operation of every
// component, in a deterministic order.
func (d *concurrentDriver) candidates() []event.Event {
	var out []event.Event
	contained := func(t tree.TID) bool {
		return d.cfg.ContainOrphans && d.isOrphan(t)
	}
	// Transaction outputs (REQUEST_CREATE, REQUEST_COMMIT of non-access).
	for _, t := range d.sortedTxs() {
		if contained(t) {
			continue
		}
		out = append(out, d.txs[t].enabledOutputs()...)
	}
	// Object outputs (REQUEST_COMMIT of accesses). The value is computed
	// at apply time; candidates carry only the identity.
	for _, x := range d.sortedObjects() {
		m := d.objs[x]
		ts := m.EnabledAccesses()
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
	for _, t := range d.sortedTxs() {
		if contained(t) {
			continue
		}
		tx := d.txs[t]
		for i := range tx.prog.Children {
			c := t.Child(i)
			if _, done := d.reportsDelivered[c]; done {
				continue
			}
			if sch.Committed(c) {
				if v, ok := sch.CommitRequested(c); ok {
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

func (d *concurrentDriver) informCandidates() []event.Event {
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
func (d *concurrentDriver) abortCandidates() []event.Event {
	var out []event.Event
	for _, t := range sortedSet(d.sched.AbortableTransactions()) {
		out = append(out, event.Event{Kind: event.Abort, T: t})
	}
	return out
}

// apply performs e at every component that shares it and appends it to the
// schedule.
func (d *concurrentDriver) apply(e event.Event) error {
	switch e.Kind {
	case event.RequestCreate:
		tx := d.txs[e.T.Parent()]
		tx.requested[childIndex(e.T)] = true
		d.sched.Apply(e)
	case event.RequestCommit:
		if a, isAccess := d.sys.st.AccessInfo(e.T); isAccess {
			resp, err := d.objs[a.Object].Respond(e.T)
			if err != nil {
				return err
			}
			e = resp // carries the computed value
			d.markTouched(e.T, a.Object)
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
		m := d.objs[e.Object]
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
func (d *concurrentDriver) markTouched(t tree.TID, x string) {
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

func (d *concurrentDriver) sortedTxs() []tree.TID {
	out := make([]tree.TID, 0, len(d.txs))
	for t := range d.txs {
		out = append(out, t)
	}
	sortTIDs(out)
	return out
}

func (d *concurrentDriver) sortedObjects() []string {
	out := d.sys.st.Objects()
	sort.Strings(out)
	return out
}

func sortedSet(ts []tree.TID) []tree.TID {
	sortTIDs(ts)
	return ts
}

// LockObjects exposes the driver's final lock objects for invariant checks
// in tests. It is only meaningful after run() returns.
func (d *concurrentDriver) lockObjects() map[string]*core.LockObject { return d.objs }

// RunConcurrentInspect is RunConcurrent but also returns the final M(X)
// automata, so tests can check lock-table invariants and final states.
func (sys *System) RunConcurrentInspect(cfg DriverConfig) (event.Schedule, map[string]*core.LockObject, error) {
	d, err := newConcurrentDriver(sys, cfg)
	if err != nil {
		return nil, nil, err
	}
	sched, err := d.run()
	return sched, d.lockObjects(), err
}

// RunSerial executes the serial system — the same scripted transactions
// with basic objects and the serial scheduler — and returns the serial
// schedule. abortProb gives the probability that a requested-but-uncreated
// transaction is aborted instead of created.
func (sys *System) RunSerial(seed int64, abortProb float64) (event.Schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	sched := serial.NewScheduler()
	txs := make(map[tree.TID]*txState, len(sys.programs))
	for t, p := range sys.programs {
		txs[t] = newTxState(t, p)
	}
	objs := make(map[string]*object.Basic)
	for _, x := range sys.st.Objects() {
		b, err := object.New(sys.st, x)
		if err != nil {
			return nil, err
		}
		objs[x] = b
	}
	var out event.Schedule
	reportsDelivered := make(map[tree.TID]struct{})

	sortedTxs := func() []tree.TID {
		ts := make([]tree.TID, 0, len(txs))
		for t := range txs {
			ts = append(ts, t)
		}
		sortTIDs(ts)
		return ts
	}

	for steps := 0; steps < maxSteps; steps++ {
		var cands []event.Event
		// Transaction outputs.
		for _, t := range sortedTxs() {
			cands = append(cands, txs[t].enabledOutputs()...)
		}
		// Object outputs: in the serial system at most one access is
		// pending per object at a time; respond to any pending access.
		for _, x := range sys.st.Objects() {
			for _, t := range objs[x].Pending() {
				cands = append(cands, event.Event{Kind: event.RequestCommit, T: t, Object: x})
			}
		}
		// Scheduler outputs, filtered by the serial preconditions.
		var schedCands []event.Event
		var abortCands []event.Event
		for t := range txs {
			schedCands = append(schedCands, event.Event{Kind: event.Create, T: t})
			if t != tree.Root {
				schedCands = append(schedCands, event.Event{Kind: event.Commit, T: t})
				abortCands = append(abortCands, event.Event{Kind: event.Abort, T: t})
			}
		}
		for _, t := range sys.st.Accesses() {
			schedCands = append(schedCands, event.Event{Kind: event.Create, T: t})
			schedCands = append(schedCands, event.Event{Kind: event.Commit, T: t})
			abortCands = append(abortCands, event.Event{Kind: event.Abort, T: t})
		}
		for _, e := range schedCands {
			if sched.Enabled(e) == nil {
				cands = append(cands, e)
			}
		}
		// Reports for returned transactions, once each.
		for t := range txs {
			for i := range txs[t].prog.Children {
				c := t.Child(i)
				if _, done := reportsDelivered[c]; done {
					continue
				}
				if sched.Committed(c) {
					if v, ok := sched.CommitValue(c); ok {
						cands = append(cands, event.Event{Kind: event.ReportCommit, T: c, Value: v})
					}
				} else if sched.Aborted(c) {
					cands = append(cands, event.Event{Kind: event.ReportAbort, T: c})
				}
			}
		}
		sortEvents(cands)
		var abortsEnabled []event.Event
		for _, e := range abortCands {
			if sched.Enabled(e) == nil {
				abortsEnabled = append(abortsEnabled, e)
			}
		}
		sortEvents(abortsEnabled)

		var pick event.Event
		switch {
		case len(cands) == 0:
			return out, nil
		case len(abortsEnabled) > 0 && rng.Float64() < abortProb:
			pick = abortsEnabled[rng.Intn(len(abortsEnabled))]
		default:
			pick = cands[rng.Intn(len(cands))]
		}

		// Apply.
		e := pick
		switch e.Kind {
		case event.RequestCreate:
			txs[e.T.Parent()].requested[childIndex(e.T)] = true
			sched.Apply(e)
		case event.RequestCommit:
			if a, isAccess := sys.st.AccessInfo(e.T); isAccess {
				resp, err := objs[a.Object].Respond(e.T)
				if err != nil {
					return out, err
				}
				e = resp
			} else {
				txs[e.T].requestedCommit = true
			}
			sched.Apply(e)
		case event.Create:
			if err := sched.Step(e); err != nil {
				return out, err
			}
			if a, isAccess := sys.st.AccessInfo(e.T); isAccess {
				if err := objs[a.Object].Create(e.T); err != nil {
					return out, err
				}
			} else {
				txs[e.T].handleCreate()
			}
		case event.Commit, event.Abort:
			if err := sched.Step(e); err != nil {
				return out, err
			}
		case event.ReportCommit, event.ReportAbort:
			if err := sched.Step(e); err != nil {
				return out, err
			}
			reportsDelivered[e.T] = struct{}{}
			if parent, ok := txs[e.T.Parent()]; ok {
				parent.handleReport(e.T, e.Kind == event.ReportCommit)
			}
		}
		out = append(out, stripDriverFields(e))
	}
	return out, fmt.Errorf("system: serial driver: step budget exhausted")
}

func sortEvents(es []event.Event) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Kind != es[j].Kind {
			return es[i].Kind < es[j].Kind
		}
		if es[i].T != es[j].T {
			return es[i].T < es[j].T
		}
		return es[i].Object < es[j].Object
	})
}

// Package mvto implements multi-version timestamp-ordering concurrency
// control in the style of Reed — the alternative nested-transaction data
// management the paper cites (§1: "The work of Reed [R] extended
// multi-version timestamp concurrency control to provide nested
// transaction data management").
//
// It serves as a comparison baseline for the locking engine (experiment
// E9): transactions draw pseudo-times at start; objects keep version
// lists; reads select the latest version no newer than the reader and
// *wait* when that version is still tentative (waits always point at
// smaller timestamps, so there are no deadlocks); writes that arrive after
// a later-stamped read has already passed them abort with ErrTooLate.
//
// Scope note (documented substitution, see DESIGN.md): this baseline
// implements Reed's scheme at top-level-transaction granularity — the
// classical MVTO rules — rather than his full hierarchical pseudo-time
// ranges for subtransactions. The E9 comparison therefore runs flat
// transactions on both engines; nesting is exercised against the locking
// engine everywhere else.
package mvto

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"nestedtx/internal/adt"
)

// ErrTooLate is returned by a write whose pseudo-time has already been
// passed by a later-stamped committed read; the transaction must abort
// (and may retry with a fresh, later timestamp).
var ErrTooLate = errors.New("mvto: write too late (later read exists)")

// ErrTxDone is returned by operations on a finished transaction.
var ErrTxDone = errors.New("mvto: transaction already finished")

// Stats counts engine activity.
type Stats struct {
	Begun    uint64
	Commits  uint64
	Aborts   uint64 // explicit aborts (including after ErrTooLate)
	TooLates uint64 // writes rejected by the timestamp rule
	Waits    uint64 // reads/writes that waited on a tentative version
}

// Manager owns the versioned objects and the pseudo-time clock.
type Manager struct {
	mu      sync.Mutex
	cond    *sync.Cond
	clock   int64
	objects map[string]*object
	stats   Stats
	// committedLog records (ts, object, op, value) for every committed
	// transaction, for independent serializability verification.
	committedLog []logEntry
}

type logEntry struct {
	ts    int64
	obj   string
	op    adt.Op
	value adt.Value
}

// version is one entry in an object's version list.
type version struct {
	ts        int64
	state     adt.State
	committed bool
	maxRead   int64 // largest timestamp that has read this version
}

type object struct {
	name     string
	versions []version // sorted by ts ascending; versions[0] is initial
}

// New returns an empty Manager.
func New() *Manager {
	m := &Manager{objects: make(map[string]*object)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Register declares object x with initial state init (a committed version
// at pseudo-time 0).
func (m *Manager) Register(x string, init adt.State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.objects[x]; dup {
		return fmt.Errorf("mvto: object %q already registered", x)
	}
	m.objects[x] = &object{
		name:     x,
		versions: []version{{ts: 0, state: init, committed: true}},
	}
	return nil
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// CurrentState returns the latest committed state of x.
func (m *Manager) CurrentState(x string) (adt.State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.objects[x]
	if !ok {
		return nil, fmt.Errorf("mvto: object %q not registered", x)
	}
	for i := len(o.versions) - 1; i >= 0; i-- {
		if o.versions[i].committed {
			return o.versions[i].state, nil
		}
	}
	return nil, fmt.Errorf("mvto: object %q has no committed version", x)
}

// Tx is one timestamped transaction.
type Tx struct {
	m    *Manager
	ts   int64
	done bool
	log  []logEntry // this transaction's operations, for the verifier
}

// Begin starts a transaction at the next pseudo-time.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	m.stats.Begun++
	return &Tx{m: m, ts: m.clock}
}

// Timestamp returns the transaction's pseudo-time.
func (tx *Tx) Timestamp() int64 { return tx.ts }

// latestAtMost returns the index of the version with the largest ts ≤ t,
// tentative or committed. The initial version guarantees existence.
func (o *object) latestAtMost(t int64) int {
	// versions is sorted by ts; binary search for the last index with
	// ts <= t.
	i := sort.Search(len(o.versions), func(i int) bool { return o.versions[i].ts > t })
	return i - 1
}

// Do applies op to object x on behalf of tx. Reads may wait for an
// earlier tentative version to resolve; writes fail fast with ErrTooLate
// when the timestamp rule rejects them (the transaction should then
// Abort).
func (tx *Tx) Do(x string, op adt.Op) (adt.Value, error) {
	m := tx.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if tx.done {
		return nil, ErrTxDone
	}
	o, ok := m.objects[x]
	if !ok {
		return nil, fmt.Errorf("mvto: object %q not registered", x)
	}
	waited := false
	for {
		i := o.latestAtMost(tx.ts)
		v := &o.versions[i]
		if !v.committed && v.ts != tx.ts {
			// A tentative version from an earlier transaction: its fate
			// decides what we read. Waits always target strictly smaller
			// timestamps (v.ts < tx.ts since timestamps are unique), so
			// the wait graph is acyclic — MVTO cannot deadlock.
			if !waited {
				m.stats.Waits++
				waited = true
			}
			m.cond.Wait()
			if tx.done {
				return nil, ErrTxDone
			}
			continue
		}
		if op.ReadOnly() {
			var state adt.State
			if v.ts == tx.ts {
				state = v.state // read own write
			} else {
				state = v.state
				if tx.ts > v.maxRead {
					v.maxRead = tx.ts
				}
			}
			_, val := op.Apply(state)
			tx.log = append(tx.log, logEntry{ts: tx.ts, obj: x, op: op, value: val})
			return val, nil
		}
		// Write: the version we would supersede is v (largest ts ≤ tx.ts).
		if v.ts == tx.ts {
			// Updating our own tentative version is always allowed.
			next, val := op.Apply(v.state)
			v.state = next
			tx.log = append(tx.log, logEntry{ts: tx.ts, obj: x, op: op, value: val})
			return val, nil
		}
		if v.maxRead > tx.ts {
			// A later-stamped transaction already read v; installing a
			// version between v and that read would invalidate it.
			m.stats.TooLates++
			return nil, ErrTooLate
		}
		// A write is a read-modify-write: its value is computed from v, so
		// it also *reads* v. Recording that read makes any earlier-stamped
		// writer that would slide between v and us abort as too late —
		// without it, two adds based on the same version could both
		// commit. (Blind writes pay a little conservatism here.)
		if tx.ts > v.maxRead {
			v.maxRead = tx.ts
		}
		next, val := op.Apply(v.state)
		// Insert a tentative version at tx.ts, after index i.
		o.versions = append(o.versions, version{})
		copy(o.versions[i+2:], o.versions[i+1:])
		o.versions[i+1] = version{ts: tx.ts, state: next, committed: false}
		tx.log = append(tx.log, logEntry{ts: tx.ts, obj: x, op: op, value: val})
		return val, nil
	}
}

// Read is Do restricted to read-only ops.
func (tx *Tx) Read(x string, op adt.Op) (adt.Value, error) {
	if !op.ReadOnly() {
		return nil, fmt.Errorf("mvto: Read with non-read-only op %s", op)
	}
	return tx.Do(x, op)
}

// Write is Do restricted to mutating ops.
func (tx *Tx) Write(x string, op adt.Op) (adt.Value, error) {
	if op.ReadOnly() {
		return nil, fmt.Errorf("mvto: Write with read-only op %s", op)
	}
	return tx.Do(x, op)
}

// Commit makes the transaction's tentative versions committed and wakes
// waiters.
func (tx *Tx) Commit() error {
	m := tx.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	for _, o := range m.objects {
		for i := range o.versions {
			if o.versions[i].ts == tx.ts {
				o.versions[i].committed = true
			}
		}
	}
	m.committedLog = append(m.committedLog, tx.log...)
	m.stats.Commits++
	m.cond.Broadcast()
	return nil
}

// Abort discards the transaction's tentative versions and wakes waiters.
func (tx *Tx) Abort() {
	m := tx.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if tx.done {
		return
	}
	tx.done = true
	for _, o := range m.objects {
		keep := o.versions[:0]
		for _, v := range o.versions {
			if v.ts != tx.ts {
				keep = append(keep, v)
			}
		}
		o.versions = keep
	}
	m.stats.Aborts++
	m.cond.Broadcast()
}

// Run executes fn as one transaction, committing on nil and aborting on
// error; ErrTooLate aborts are retried at once with a fresh (later)
// timestamp — there is no conflict to wait out — up to attempts times.
// attempts below 1 are clamped to 1: fn always runs at least once.
func (m *Manager) Run(attempts int, fn func(*Tx) error) error {
	for i := 1; ; i++ {
		tx := m.Begin()
		err := fn(tx)
		if err == nil {
			return tx.Commit()
		}
		tx.Abort()
		if !errors.Is(err, ErrTooLate) || i >= attempts {
			return err
		}
	}
}

// VerifySerializable independently checks the run: replaying every
// committed operation in pseudo-time order against fresh objects must
// reproduce each operation's recorded value and the final committed
// states. Call when no transactions are in flight.
func (m *Manager) VerifySerializable(initial map[string]adt.State) error {
	m.mu.Lock()
	log := make([]logEntry, len(m.committedLog))
	copy(log, m.committedLog)
	m.mu.Unlock()
	sort.SliceStable(log, func(i, j int) bool { return log[i].ts < log[j].ts })
	states := make(map[string]adt.State, len(initial))
	for x, s := range initial {
		states[x] = s
	}
	for i, e := range log {
		s, ok := states[e.obj]
		if !ok {
			return fmt.Errorf("mvto: verify: unknown object %q", e.obj)
		}
		next, val := e.op.Apply(s)
		if val != e.value {
			return fmt.Errorf("mvto: verify: entry %d (ts %d, %s on %s) returned %v live but %v in serial replay",
				i, e.ts, e.op, e.obj, e.value, val)
		}
		states[e.obj] = next
	}
	for x, s := range states {
		live, err := m.CurrentState(x)
		if err != nil {
			return err
		}
		if live.String() != s.String() {
			return fmt.Errorf("mvto: verify: final state of %s is %s live but %s in serial replay", x, live, s)
		}
	}
	return nil
}

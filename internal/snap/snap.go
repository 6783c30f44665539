// Package snap is the committed-version store: the one reader-facing
// home of committed state, on a leader and on a replica alike. It is a
// multi-version map from object name to the chain of committed-to-root
// states the object has passed through, each tagged with the monotone
// sequence number of the top-level commit that installed it. A plain
// committed read (Head), a read-only transaction (Begin) and a replica
// read all answer from the same chains under the same mutex, and so does
// a checkpoint (Hold), and the lock manager reads the root's version of an
// object as its latest here.
//
// The store is fed from inside the runtime's top-level commit sequence,
// *before* the lock manager releases the committing transaction's locks.
// Under strict locking any conflicting successor is granted — and so
// published — strictly after us, which makes publication order agree
// with the per-object conflict order (and, on a durable manager, with
// WAL order). A reader that pins sequence number s therefore observes
// exactly the committed prefix of the serial history up to s: all of a
// transaction's updates or none of them, never a tentative version, and
// never a write that later aborts (aborted transactions are not
// published).
//
// On a durable manager the locks are released when the commit record is
// staged, a device latency before it is durable, so publication has two
// halves: Stage installs the versions and notes the record's LSN, Settle
// — called by every committer once its own record is covered by an
// fsync — is told the log's durable mark and counts out every
// publication below it. Readers answer from the durable horizon, the
// highest sequence number with no unsettled publication at or below it:
// Head, Begin and Acquire never show a version whose commit record a
// crash could still lose. (Sequence order is not log order for commits
// that do not conflict, so the horizon is "oldest unsettled − 1", and a
// settled publication above an unsettled one stays hidden until that one
// settles too.) A publication that never settles — its fsync failed —
// holds the horizon below itself for good. Publish is both halves at
// once, for a manager with no log and for a follower, which replays only
// durable records.
//
// Readers never touch the lock manager: Begin pins the horizon under the
// store's read-write mutex and every read is a binary search over one
// object's version chain. Chains are trimmed on publication down to the
// oldest version still reachable from a live pin or the horizon, so
// retained history is bounded by reader lifetimes and commits in flight,
// not run length.
package snap

import (
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/obs"
	"nestedtx/internal/slab"
)

// ErrDone is returned by operations on a transaction that has already
// finished — here, a read through a closed [Tx]. The root package's
// ErrDone is this value, so a caller matches one sentinel whether the
// transaction was a locking one or a read-only one, on a leader or on a
// replica.
var ErrDone = errors.New("nestedtx: transaction already finished")

// PubEntry is one recorded publication: the versions a committing
// top-level transaction installed and the sequence number it was
// assigned. The log (enabled via New's record argument) is consumed by
// the snapshot extension of the Theorem-34 checker.
//
// Settled and TxEntry.Pinned are readings of one counter the store ticks
// at every settle and every pin, so they order the two kinds of event:
// the checker requires every publication a pin covers to have settled
// before it. Zero means never settled.
type PubEntry struct {
	Seq     uint64
	Top     string
	Updates map[string]adt.State
	Settled uint64
}

// ReadEntry is one recorded read of a read-only transaction: the
// operation it applied and the value it returned.
type ReadEntry struct {
	Object string
	Op     adt.Op
	Value  adt.Value
}

// TxEntry is one finished read-only transaction: the sequence number it
// pinned and the reads it performed. Like the publication log it is
// kept only by a recording store, for the same checker.
type TxEntry struct {
	ID     string
	Seq    uint64
	Pinned uint64 // see PubEntry
	Reads  []ReadEntry
}

// staged is a publication whose commit record, at lsn, is not yet known
// to be durable.
type staged struct{ seq, lsn uint64 }

// version is one committed state of an object, visible to pins ≥ Seq.
type version struct {
	seq uint64
	st  adt.State
}

// Object is the store's record of one registered object: the chain of
// its committed versions, oldest first, its name and its owner. Whoever
// files an object makes its record, usually inside a larger one of its
// own — the lock manager embeds an Object in each object's lock state,
// so one lookup in the store's index finds both — and names that record
// its owner, which Owner returns. Base makes records of its own, with no
// owner. Filing starts the chain in first, at capacity one. A publication
// that no pin and no unsettled publication can read behind overwrites a
// one-version chain where it lies, in first or in an array an earlier
// publication grew, so an object written only while nobody reads behind
// it never leaves first. One that must keep the old version beside the
// new appends, and the first such append copies the chain out of first.
// The name and the owner come last, so that a record which embeds an
// Object first has them next to its own fields: a lookup that goes on to
// the owner reads one run of memory.
type Object struct {
	chain []version
	first [1]version
	name  string
	owner any
}

// Name returns the name the object was filed under.
func (o *Object) Name() string { return o.name }

// Owner returns the owner the object was filed with: nil for one Base
// filed.
func (o *Object) Owner() any { return o.owner }

// Latest returns the object's latest version, staged or settled. It takes
// no lock: the caller orders the read after the object's last publication
// and before its next (the lock manager does, by the object's write lock).
func (o *Object) Latest() adt.State { return o.chain[len(o.chain)-1].st }

// objectChunk is the number of records one of Base's allocations holds:
// 102 records of 80 B and the 8-byte header Go puts before a pointerful
// object of over 512 B fit the 8,192-byte size class, and 103 would
// spill into the 9,472-byte one.
const objectChunk = 102

// orderChunk is the number of objects one chunk of the registration
// order lists: 127 pointers and the 8-byte header Go puts before a
// pointerful object of over 512 B fill the 1,024-byte size class, so a
// small store lists its objects in 1 KB, not 8.
const orderChunk = 127

// pinCount is the number of live pins at one sequence number.
type pinCount struct {
	seq uint64
	n   int
}

// Store is the committed-version store. It is safe for concurrent use.
type Store struct {
	mu  sync.RWMutex
	seq uint64 // sequence number of the latest publication
	// objs finds every object by name, without the mutex (see index).
	objs index
	// order lists the objects in the order they were filed, object i at
	// order[i/orderChunk][i%orderChunk], and n counts them. No object is
	// ever removed and a chunk, once listed, stays where it is, so the
	// first n objects of a copy of order are a stable snapshot of the
	// universe.
	order []*[orderChunk]*Object
	n     int
	// slab is what Base cuts its records from.
	slab slab.Slab[Object]
	// pins counts the live pins by ascending seq. A new pin takes the
	// horizon, which never decreases, so it lands on the tail or behind it;
	// a count a release brings to zero stays until it is the head, so the
	// head is the oldest live pin and nothing ever scans the queue.
	pins   []pinCount
	pinned int // live pins: the sum of the counts
	// unsettled holds the publications staged and not yet settled, by
	// ascending seq: as many as there are durable commits between their
	// stage and their fsync.
	unsettled []staged
	txs       uint64 // read-only transactions begun; names the next one
	rec       bool
	tick      uint64 // settle and pin events so far (recording only)
	log       []PubEntry
	done      []TxEntry // finished read-only transactions (recording only)

	// sorted is the first len(sorted) objects in ascending name order,
	// kept between checkpoints so one that follows no registration sorts
	// nothing.
	sortMu sync.Mutex
	sorted []*Object
}

// New returns an empty store. With record set, every publication and
// every finished read-only transaction is appended to a log retrievable
// via Log and TxLog — unbounded, like the event recorder, so meant for
// verification runs, not production.
func New(record bool) *Store {
	return &Store{rec: record}
}

// Base registers object x with its initial committed state, visible to
// pins at or above the current horizon — a pin at a lower sequence
// number correctly fails to read x. It cuts x's record from the store's
// own chunks, with no owner; basing a name twice is a bug, and panics.
func (s *Store) Base(x string, st adt.State) {
	if !s.File(x, st, func() (*Object, any) { return s.slab.New(objectChunk), nil }) {
		panic("snap: object " + x + " re-based")
	}
}

// File is Base for a record the caller makes: unless x is registered
// already, in which case it reports false and calls nothing, it calls
// cut for a zero Object that will never move and for its owner, files
// the object under x with st as its first version, and reports true.
// From then on the object's Owner returns the owner, and a lookup of x
// may find it at once, so cut must complete the owner before it
// returns. cut runs with the store's mutex held, so no two cuts of one
// store run at once and a caller may cut from an unsynchronised slab.
func (s *Store) File(x string, st adt.State, cut func() (*Object, any)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	// One probe: it finds x filed already, or the slot to file x in.
	dup, h, i := s.objs.find(x)
	if dup != nil {
		return false
	}
	o, owner := cut()
	o.name, o.owner = x, owner
	o.first[0] = version{seq: s.horizonLocked(), st: st}
	o.chain = o.first[:]
	s.objs.file(o, h, i)
	if s.n == len(s.order)*orderChunk {
		s.order = append(s.order, new([orderChunk]*Object))
	}
	s.order[s.n/orderChunk][s.n%orderChunk] = o
	s.n++
	return true
}

// Lookup returns the record of object x, or nil when x is not
// registered. It takes no lock, so it never waits for a publication.
func (s *Store) Lookup(x string) *Object { return s.objs.get(x) }

// LookupBytes is Lookup for a name held in a buffer: the bytes are hashed
// and compared where they lie, so a caller holding a name in a buffer
// reaches the registered string without allocating a copy.
func (s *Store) LookupBytes(b []byte) *Object { return s.objs.getBytes(b) }

// Objects yields the record of every object registered before the call
// once, and perhaps of some registered during it, in no particular order.
// It takes no lock.
func (s *Store) Objects() iter.Seq[*Object] { return s.objs.all() }

// Publish atomically installs the new committed states of one top-level
// transaction and returns the sequence number it was assigned. All of
// the transaction's versions become visible at once: a pin either sees
// the whole transaction or none of it. Every object updates names must
// have been based; naming another is a bug, and panics.
func (s *Store) Publish(top string, updates map[string]adt.State) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked(top, updates, 0, true)
}

// Stage is the first half of a publication whose commit record, at lsn,
// is not yet durable: the versions are installed under a new sequence
// number, which stays above the horizon — invisible to Head and to new
// pins — until Settle is told of a durable mark past lsn.
func (s *Store) Stage(top string, updates map[string]adt.State, lsn uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked(top, updates, lsn, false)
}

// Settle is the second half: every log record below durable is on the
// device, so every publication staged below it is settled — the caller's
// own and any whose committer has not got here yet. It returns the
// horizon, which passes a publication once every earlier one has settled
// too.
func (s *Store) Settle(durable uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := s.unsettled[:0]
	for _, p := range s.unsettled {
		if p.lsn < durable {
			s.settledLocked(p.seq)
		} else {
			keep = append(keep, p)
		}
	}
	s.unsettled = keep
	return s.horizonLocked()
}

// settledLocked stamps publication seq's log entry with the next tick.
// Every publication of a recording store is logged, so entry seq−1 is it.
func (s *Store) settledLocked(seq uint64) {
	if s.rec {
		s.tick++
		s.log[seq-1].Settled = s.tick
	}
}

// horizonLocked returns the highest sequence number with no unsettled
// publication at or below it. Caller holds s.mu.
func (s *Store) horizonLocked() uint64 {
	if len(s.unsettled) > 0 {
		return s.unsettled[0].seq - 1
	}
	return s.seq
}

func (s *Store) publishLocked(top string, updates map[string]adt.State, lsn uint64, settled bool) uint64 {
	s.seq++
	if !settled {
		// Counted before the floor is taken: the horizon must not pass
		// this publication, or trim drops the version horizon readers need.
		s.unsettled = append(s.unsettled, staged{s.seq, lsn})
	}
	floor := s.minPinLocked()
	for x, st := range updates {
		o := s.objs.get(x)
		if o == nil {
			panic("snap: object " + x + " published but never based")
		}
		v := version{seq: s.seq, st: st}
		if len(o.chain) == 1 && floor >= s.seq {
			// No pin and nothing unsettled can read the one version
			// there is: trim would keep the new one alone.
			o.chain[0] = v
			continue
		}
		o.chain = trim(append(o.chain, v), floor)
	}
	if s.rec {
		cp := make(map[string]adt.State, len(updates))
		for x, st := range updates {
			cp[x] = st
		}
		s.log = append(s.log, PubEntry{Seq: s.seq, Top: top, Updates: cp})
		if settled {
			s.settledLocked(s.seq)
		}
	}
	return s.seq
}

// minPinLocked returns the lowest sequence number a reader can still
// ask for: the oldest live pin — it took a horizon, and the horizon never
// decreases — or the horizon when no pin is live. Caller holds s.mu.
func (s *Store) minPinLocked() uint64 {
	if len(s.pins) > 0 {
		return s.pins[0].seq
	}
	return s.horizonLocked()
}

// trim drops versions no pin can reach: everything strictly below the
// latest version at or below floor (which stays, as the floor pin's
// view of the object).
func trim(chain []version, floor uint64) []version {
	keep := sort.Search(len(chain), func(i int) bool { return chain[i].seq > floor }) - 1
	if keep <= 0 {
		return chain
	}
	return append(chain[:0], chain[keep:]...)
}

// Seq returns the sequence number of the latest publication, settled or
// not.
func (s *Store) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// Head returns object x's latest committed state: what a pin taken now
// would read.
func (s *Store) Head(x string) (adt.State, error) {
	o := s.objs.get(x)
	if o == nil {
		return nil, fmt.Errorf("snap: object %q not registered", x)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := o.chain
	// Base tags at the horizon and trim floors there, so the chain always
	// holds a version at or below it.
	i := len(chain) - 1
	for h := s.horizonLocked(); chain[i].seq > h; i-- {
	}
	return chain[i].st, nil
}

// Pin is a live reference to one sequence number; reads through it see
// the committed prefix up to that publication. Release it when done so
// the store can trim history.
type Pin struct {
	s    *Store
	seq  uint64
	once sync.Once
}

// Acquire pins the horizon.
func (s *Store) Acquire() *Pin {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Pin{s: s, seq: s.pinLocked()}
}

// pinLocked counts one more pin at the horizon and returns it. Caller
// holds s.mu.
func (s *Store) pinLocked() uint64 {
	seq := s.horizonLocked()
	if n := len(s.pins); n > 0 && s.pins[n-1].seq == seq {
		s.pins[n-1].n++
	} else {
		s.pins = append(s.pins, pinCount{seq, 1})
	}
	s.pinned++
	return seq
}

// Seq returns the pinned sequence number.
func (p *Pin) Seq() uint64 { return p.seq }

// Read returns object x's latest committed state at or below the pinned
// sequence number. It fails when x was not registered at the pin point.
func (p *Pin) Read(x string) (adt.State, error) {
	var st adt.State
	ok := false
	if o := p.s.objs.get(x); o != nil {
		p.s.mu.RLock()
		st, ok = stateAt(o.chain, p.seq)
		p.s.mu.RUnlock()
	}
	if !ok {
		return nil, fmt.Errorf("snap: object %q has no version at snapshot %d", x, p.seq)
	}
	return st, nil
}

// stateAt returns the latest version of chain at or below seq.
func stateAt(chain []version, seq uint64) (adt.State, bool) {
	i := sort.Search(len(chain), func(i int) bool { return chain[i].seq > seq }) - 1
	if i < 0 {
		return nil, false
	}
	return chain[i].st, true
}

// Release drops the pin. Idempotent.
func (p *Pin) Release() {
	p.once.Do(func() {
		p.s.mu.Lock()
		defer p.s.mu.Unlock()
		s := p.s
		i := sort.Search(len(s.pins), func(i int) bool { return s.pins[i].seq >= p.seq })
		s.pins[i].n--
		if s.pinned--; s.pinned == 0 {
			s.pins = s.pins[:0] // keeps its array: a steady reader allocates none
		}
		for len(s.pins) > 0 && s.pins[0].n == 0 {
			s.pins = s.pins[1:] // the dead prefix goes when the queue next grows
		}
	})
}

// Pinned returns the number of live pins.
func (s *Store) Pinned() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pinned
}

// Hold is a checkpoint's claim on the store: the latest publication,
// settled or not, and the objects registered by then. A durable manager
// takes it with its log's staging excluded, when every record below the
// log's next LSN has published and none above it has, so the states it
// reads are exactly the redo of that prefix — the cut a checkpoint at
// that LSN must write. Taking it is O(1); reading it is not, and runs
// with commits flowing.
type Hold struct {
	// floor pins the horizon, at or below seq, so trimming keeps every
	// version the hold reads without a pin out of ascending order.
	floor *Pin
	seq   uint64
	order []*[orderChunk]*Object // the store's registration order at the hold
	n     int                    // the objects registered at the hold
}

// Hold holds the store at its latest publication until Release.
func (s *Store) Hold() *Hold {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Hold{
		floor: &Pin{s: s, seq: s.pinLocked()},
		seq:   s.seq,
		order: s.order[:len(s.order):len(s.order)],
		n:     s.n,
	}
}

// States yields every object registered at the hold with its state
// there, in ascending name order. Each read takes the store's read lock
// alone, so publications interleave with the iteration.
func (h *Hold) States(yield func(string, adt.State) bool) {
	s := h.floor.s
	s.sortMu.Lock()
	defer s.sortMu.Unlock()
	if len(s.sorted) != h.n {
		if len(s.sorted) > h.n {
			s.sorted = s.sorted[:0]
		}
		for i := len(s.sorted); i < h.n; i++ {
			s.sorted = append(s.sorted, h.order[i/orderChunk][i%orderChunk])
		}
		slices.SortFunc(s.sorted, func(a, b *Object) int { return strings.Compare(a.name, b.name) })
	}
	for _, o := range s.sorted {
		s.mu.RLock()
		st, _ := stateAt(o.chain, h.seq)
		s.mu.RUnlock()
		if !yield(o.name, st) {
			return
		}
	}
}

// Release lets trimming pass the hold. Idempotent.
func (h *Hold) Release() { h.floor.Release() }

// Versions returns the total number of retained versions across all
// objects — what chain trimming is bounding. For tests and stats.
func (s *Store) Versions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for o := range s.objs.all() {
		n += len(o.chain)
	}
	return n
}

// Log returns a snapshot of the publication log (nil unless the store
// was created with record set).
func (s *Store) Log() []PubEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]PubEntry(nil), s.log...)
}

// TxLog returns a snapshot of the finished read-only transactions (nil
// unless the store was created with record set).
func (s *Store) TxLog() []TxEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]TxEntry(nil), s.done...)
}

// Tx is a read-only transaction: it pins the horizon — the latest
// publication with nothing unsettled at or below it — and serves every
// read from the committed version chain at or below that point, without
// ever touching the lock manager.
// Reads are repeatable, multi-object consistent (a commit is visible in
// full or not at all), and never block — or are blocked by — writers.
// A Tx is safe for concurrent use; Close releases the pin so the store
// can trim history.
//
// The mode is licensed by the paper's §4.3 equieffectiveness argument:
// a read-only operation returns the state it was given, so running it
// against a committed version is indistinguishable from a serial
// execution inserted at the pin point. The checker's CheckSnapshots
// machine-checks exactly that placement from Log and TxLog.
type Tx struct {
	pin Pin
	met *obs.Metrics
	n   uint64 // the transaction's number: ID formats it

	mu   sync.Mutex
	done bool
	rec  *TxEntry // recording stores only: what Close logs
}

// Begin starts a read-only transaction pinned at the horizon, counting
// it and its reads in met (nil: nobody reads them). The caller must
// Close it.
func (s *Store) Begin(met *obs.Metrics) *Tx {
	s.mu.Lock()
	n, seq := s.txs, s.pinLocked()
	s.txs++
	var rec *TxEntry
	if s.rec {
		s.tick++
		rec = &TxEntry{Seq: seq, Pinned: s.tick}
	}
	s.mu.Unlock()
	t := &Tx{pin: Pin{s: s, seq: seq}, met: obs.Or(met), n: n, rec: rec}
	t.met.SnapBegin()
	t.trace("SNAP_BEGIN")
	return t
}

// ID returns the transaction's identifier (S0, S1, …); the namespace is
// disjoint from the transaction tree's TIDs. It is formatted on each
// call, so a transaction nobody names costs no string.
func (t *Tx) ID() string { return "S" + strconv.FormatUint(t.n, 10) }

// trace records kind for the transaction when its metrics trace, and
// formats its ID only then.
func (t *Tx) trace(kind string) {
	if t.met.Tracer != nil {
		t.met.Trace(kind, t.ID(), "", 0)
	}
}

// Seq returns the pinned sequence number: the transaction observes
// exactly the first Seq publications.
func (t *Tx) Seq() uint64 { return t.pin.seq }

// Read applies a read-only operation to obj's state as of the pinned
// sequence number and returns its value. It fails if op is not
// read-only, if the transaction is closed (ErrDone), or if obj was not
// registered at the pin point.
func (t *Tx) Read(obj string, op adt.Op) (adt.Value, error) {
	if !op.ReadOnly() {
		return nil, fmt.Errorf("nestedtx: %s: operation %T is not read-only", t.ID(), op)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, ErrDone
	}
	start := time.Now()
	st, err := t.pin.Read(obj)
	if err != nil {
		return nil, fmt.Errorf("nestedtx: %s: %w", t.ID(), err)
	}
	_, v := op.Apply(st)
	t.met.ObserveSnapRead(time.Since(start))
	if t.rec != nil {
		t.rec.Reads = append(t.rec.Reads, ReadEntry{Object: obj, Op: op, Value: v})
	}
	return v, nil
}

// Close ends the transaction and releases its pin. Idempotent.
func (t *Tx) Close() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	t.done = true
	t.mu.Unlock()
	t.pin.Release()
	t.met.SnapPinned.Add(-1)
	t.trace("SNAP_END")
	if t.rec != nil {
		t.rec.ID = t.ID()
		s := t.pin.s
		s.mu.Lock()
		s.done = append(s.done, *t.rec)
		s.mu.Unlock()
	}
	return nil
}

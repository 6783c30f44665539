// Package adt provides the abstract data types that back object automata.
//
// The paper's example basic object (§4.3) holds "an instance of an abstract
// data type"; each access applies a function to the instance, yielding a
// return value and a possibly altered instance. This package supplies the
// State/Op interfaces for such instances and a library of concrete types
// (register, counter, set, bank account, key-value table).
//
// The semantic conditions of §4.3 demand that *read* accesses leave the
// object "essentially" in the state they found it (equieffectiveness).
// Operations here make that syntactically evident: an Op whose ReadOnly
// method reports true must return the very state it was given. The
// equieffectiveness property tests in internal/object verify this for every
// type in the library.
package adt

import "fmt"

// Value is an access's return value. Values must be comparable with ==
// (ints, strings, bools, small comparable structs) so that schedules can be
// compared for serial correctness.
type Value any

// State is an immutable snapshot of an object's data. Ops never mutate a
// State in place; they return the successor state. Because M(X) keeps one
// version per write-lockholder, immutability makes version maps cheap and
// aliasing-safe.
type State interface {
	// String renders the state for traces and error messages.
	String() string
}

// Op is a single operation of the data type: the function an access applies
// to the instance.
type Op interface {
	// Apply computes (successor state, return value) as a function of its
	// argument alone. For a ReadOnly op the successor must be the argument
	// itself; so a ReadOnly op of a zero-size type, applied again to a
	// version nothing has changed since, may be answered with the value it
	// returned before, without calling Apply. A write op may name such a
	// read as its ReadBack: then the value the write returns is the value
	// that read returns from the state the write leaves, and a read that
	// follows the write may be answered with the write's value.
	Apply(s State) (State, Value)
	// ReadOnly classifies the access: true for read accesses, false for
	// write accesses (Moss' algorithm takes no semantic assumptions about
	// writes, so any op may be declared a write).
	ReadOnly() bool
	// String renders the operation for traces.
	String() string
}

// ReadBacker is implemented by a write op whose return value is also a
// read of the state it leaves: ReadBack returns that read, a ReadOnly op
// of a zero-size type, so that for every state s
//
//	next, v := w.Apply(s)
//	_, v2 := w.ReadBack().Apply(next)
//
// gives v == v2. CtrAdd returns the new total, which CtrGet reads back;
// RegWrite returns the value it wrote, which RegRead reads back. An op
// that returns anything else (the old value, a status) declares none.
type ReadBacker interface {
	ReadBack() Op
}

// --- Register ---------------------------------------------------------

// Register is a single mutable cell holding a Value.
type Register struct{ V Value }

// NewRegister returns a register state holding v.
func NewRegister(v Value) Register { return Register{V: v} }

func (r Register) String() string { return fmt.Sprintf("reg(%v)", r.V) }

// RegRead reads the register.
type RegRead struct{}

func (RegRead) Apply(s State) (State, Value) { return s, s.(Register).V }
func (RegRead) ReadOnly() bool               { return true }
func (RegRead) String() string               { return "read" }

// RegWrite overwrites the register with V.
type RegWrite struct{ V Value }

func (w RegWrite) Apply(s State) (State, Value) { return Register{V: w.V}, w.V }
func (RegWrite) ReadOnly() bool                 { return false }
func (w RegWrite) String() string               { return fmt.Sprintf("write(%v)", w.V) }

// ReadBack is RegRead: a write returns the value it wrote.
func (RegWrite) ReadBack() Op { return RegRead{} }

// --- Counter ----------------------------------------------------------

// Counter is a monotonic-free integer counter.
type Counter struct{ N int64 }

func (c Counter) String() string { return fmt.Sprintf("ctr(%d)", c.N) }

// CtrGet reads the counter.
type CtrGet struct{}

func (CtrGet) Apply(s State) (State, Value) { return s, s.(Counter).N }
func (CtrGet) ReadOnly() bool               { return true }
func (CtrGet) String() string               { return "get" }

// CtrAdd adds Delta to the counter and returns the new total.
type CtrAdd struct{ Delta int64 }

func (a CtrAdd) Apply(s State) (State, Value) {
	n := s.(Counter).N + a.Delta
	return Counter{N: n}, n
}
func (CtrAdd) ReadOnly() bool   { return false }
func (a CtrAdd) String() string { return fmt.Sprintf("add(%d)", a.Delta) }

// ReadBack is CtrGet: an add returns the new total.
func (CtrAdd) ReadBack() Op { return CtrGet{} }

// --- Set --------------------------------------------------------------

// IntSet is a set of int64 members. States are persistent: operations copy
// on write.
type IntSet struct{ m map[int64]struct{} }

// NewIntSet returns a set state containing the given members.
func NewIntSet(members ...int64) IntSet {
	m := make(map[int64]struct{}, len(members))
	for _, x := range members {
		m[x] = struct{}{}
	}
	return IntSet{m: m}
}

func (s IntSet) String() string { return fmt.Sprintf("set(size=%d)", len(s.m)) }

// Size returns the number of members.
func (s IntSet) Size() int { return len(s.m) }

// Has reports membership.
func (s IntSet) Has(x int64) bool { _, ok := s.m[x]; return ok }

func (s IntSet) with(x int64) IntSet {
	m := make(map[int64]struct{}, len(s.m)+1)
	for k := range s.m {
		m[k] = struct{}{}
	}
	m[x] = struct{}{}
	return IntSet{m: m}
}

func (s IntSet) without(x int64) IntSet {
	m := make(map[int64]struct{}, len(s.m))
	for k := range s.m {
		if k != x {
			m[k] = struct{}{}
		}
	}
	return IntSet{m: m}
}

// SetInsert inserts X; returns whether it was newly added.
type SetInsert struct{ X int64 }

func (i SetInsert) Apply(s State) (State, Value) {
	st := s.(IntSet)
	if st.Has(i.X) {
		return st, false
	}
	return st.with(i.X), true
}
func (SetInsert) ReadOnly() bool   { return false }
func (i SetInsert) String() string { return fmt.Sprintf("insert(%d)", i.X) }

// SetRemove removes X; returns whether it was present.
type SetRemove struct{ X int64 }

func (r SetRemove) Apply(s State) (State, Value) {
	st := s.(IntSet)
	if !st.Has(r.X) {
		return st, false
	}
	return st.without(r.X), true
}
func (SetRemove) ReadOnly() bool   { return false }
func (r SetRemove) String() string { return fmt.Sprintf("remove(%d)", r.X) }

// SetContains tests membership of X.
type SetContains struct{ X int64 }

func (c SetContains) Apply(s State) (State, Value) { return s, s.(IntSet).Has(c.X) }
func (SetContains) ReadOnly() bool                 { return true }
func (c SetContains) String() string               { return fmt.Sprintf("contains(%d)", c.X) }

// SetSize returns the cardinality.
type SetSize struct{}

func (SetSize) Apply(s State) (State, Value) { return s, int64(s.(IntSet).Size()) }
func (SetSize) ReadOnly() bool               { return true }
func (SetSize) String() string               { return "size" }

// --- Bank account -----------------------------------------------------

// Account is a bank account balance in integer cents. Withdrawals that
// would overdraw fail without changing the state (the op is still a write
// access: failure is decided against the version the access locks).
type Account struct{ Balance int64 }

func (a Account) String() string { return fmt.Sprintf("acct(%d)", a.Balance) }

// AcctResult is the return value of account mutations.
type AcctResult struct {
	OK      bool  // false when a withdrawal was refused
	Balance int64 // balance after the operation
}

// AcctBalance reads the balance.
type AcctBalance struct{}

func (AcctBalance) Apply(s State) (State, Value) { return s, s.(Account).Balance }
func (AcctBalance) ReadOnly() bool               { return true }
func (AcctBalance) String() string               { return "balance" }

// AcctDeposit adds Amount (must be >= 0) to the balance.
type AcctDeposit struct{ Amount int64 }

func (d AcctDeposit) Apply(s State) (State, Value) {
	b := s.(Account).Balance + d.Amount
	return Account{Balance: b}, AcctResult{OK: true, Balance: b}
}
func (AcctDeposit) ReadOnly() bool   { return false }
func (d AcctDeposit) String() string { return fmt.Sprintf("deposit(%d)", d.Amount) }

// AcctWithdraw subtracts Amount if funds suffice; otherwise it refuses and
// leaves the balance unchanged.
type AcctWithdraw struct{ Amount int64 }

func (w AcctWithdraw) Apply(s State) (State, Value) {
	a := s.(Account)
	if a.Balance < w.Amount {
		return a, AcctResult{OK: false, Balance: a.Balance}
	}
	b := a.Balance - w.Amount
	return Account{Balance: b}, AcctResult{OK: true, Balance: b}
}
func (AcctWithdraw) ReadOnly() bool   { return false }
func (w AcctWithdraw) String() string { return fmt.Sprintf("withdraw(%d)", w.Amount) }

// --- Key-value table --------------------------------------------------

// Table is a string-keyed map with persistent (copy-on-write) states.
type Table struct{ m map[string]Value }

// NewTable returns a table state with the given contents.
func NewTable(init map[string]Value) Table {
	m := make(map[string]Value, len(init))
	for k, v := range init {
		m[k] = v
	}
	return Table{m: m}
}

func (t Table) String() string { return fmt.Sprintf("table(size=%d)", len(t.m)) }

// Get returns the value stored at k, or nil.
func (t Table) Get(k string) Value { return t.m[k] }

// Len returns the number of keys.
func (t Table) Len() int { return len(t.m) }

func (t Table) with(k string, v Value) Table {
	m := make(map[string]Value, len(t.m)+1)
	for key, val := range t.m {
		m[key] = val
	}
	m[k] = v
	return Table{m: m}
}

func (t Table) without(k string) Table {
	m := make(map[string]Value, len(t.m))
	for key, val := range t.m {
		if key != k {
			m[key] = val
		}
	}
	return Table{m: m}
}

// TblGet reads key K; returns the stored value, or nil if absent.
type TblGet struct{ K string }

func (g TblGet) Apply(s State) (State, Value) { return s, s.(Table).Get(g.K) }
func (TblGet) ReadOnly() bool                 { return true }
func (g TblGet) String() string               { return fmt.Sprintf("get(%s)", g.K) }

// TblPut stores V at key K and returns the previous value (or nil).
type TblPut struct {
	K string
	V Value
}

func (p TblPut) Apply(s State) (State, Value) {
	t := s.(Table)
	prev := t.Get(p.K)
	return t.with(p.K, p.V), prev
}
func (TblPut) ReadOnly() bool   { return false }
func (p TblPut) String() string { return fmt.Sprintf("put(%s=%v)", p.K, p.V) }

// TblDelete removes key K and returns whether it was present.
type TblDelete struct{ K string }

func (d TblDelete) Apply(s State) (State, Value) {
	t := s.(Table)
	if t.Get(d.K) == nil {
		return t, false
	}
	return t.without(d.K), true
}
func (TblDelete) ReadOnly() bool   { return false }
func (d TblDelete) String() string { return fmt.Sprintf("delete(%s)", d.K) }

// TakeResult is the return value of CtrTake.
type TakeResult struct {
	OK bool  // whether the take succeeded
	N  int64 // counter value after the operation
}

// CtrTake atomically takes N units from the counter if at least N remain;
// otherwise it fails and leaves the counter unchanged. A single write
// access, it avoids the read-then-write lock-upgrade pattern that invites
// deadlock in reservation workloads.
type CtrTake struct{ N int64 }

func (t CtrTake) Apply(s State) (State, Value) {
	c := s.(Counter)
	if c.N < t.N {
		return c, TakeResult{OK: false, N: c.N}
	}
	n := c.N - t.N
	return Counter{N: n}, TakeResult{OK: true, N: n}
}
func (CtrTake) ReadOnly() bool   { return false }
func (t CtrTake) String() string { return fmt.Sprintf("take(%d)", t.N) }

// --- Queue --------------------------------------------------------------

// Queue is a FIFO of Values with persistent (copy-on-write) states.
type Queue struct{ items []Value }

// NewQueue returns a queue state with the given initial contents (front
// first).
func NewQueue(items ...Value) Queue {
	q := Queue{items: make([]Value, len(items))}
	copy(q.items, items)
	return q
}

func (q Queue) String() string { return fmt.Sprintf("queue(len=%d)", len(q.items)) }

// Len returns the number of queued items.
func (q Queue) Len() int { return len(q.items) }

// Front returns the front item, or nil when empty.
func (q Queue) Front() Value {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// Items returns a copy of the queued items, front first.
func (q Queue) Items() []Value {
	out := make([]Value, len(q.items))
	copy(out, q.items)
	return out
}

// QEnqueue appends V and returns the new length.
type QEnqueue struct{ V Value }

func (e QEnqueue) Apply(s State) (State, Value) {
	q := s.(Queue)
	items := make([]Value, len(q.items)+1)
	copy(items, q.items)
	items[len(q.items)] = e.V
	return Queue{items: items}, int64(len(items))
}
func (QEnqueue) ReadOnly() bool   { return false }
func (e QEnqueue) String() string { return fmt.Sprintf("enqueue(%v)", e.V) }

// QDequeue removes and returns the front item (nil when empty).
type QDequeue struct{}

func (QDequeue) Apply(s State) (State, Value) {
	q := s.(Queue)
	if len(q.items) == 0 {
		return q, nil
	}
	items := make([]Value, len(q.items)-1)
	copy(items, q.items[1:])
	return Queue{items: items}, q.items[0]
}
func (QDequeue) ReadOnly() bool { return false }
func (QDequeue) String() string { return "dequeue" }

// QPeek returns the front item without removing it (read lock).
type QPeek struct{}

func (QPeek) Apply(s State) (State, Value) { return s, s.(Queue).Front() }
func (QPeek) ReadOnly() bool               { return true }
func (QPeek) String() string               { return "peek" }

// QLen returns the queue length (read lock).
type QLen struct{}

func (QLen) Apply(s State) (State, Value) { return s, int64(s.(Queue).Len()) }
func (QLen) ReadOnly() bool               { return true }
func (QLen) String() string               { return "len" }

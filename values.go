package nestedtx

import "nestedtx/internal/adt"

// Value is an access's return value; values must be comparable with ==.
type Value = adt.Value

// State is an immutable snapshot of an object's data; see the provided
// concrete types ([Register], [Counter], [Account], [IntSet], [Table]) or
// implement your own.
type State = adt.State

// Op is one operation of a data type. Apply must be a function of the
// state it is given. ReadOnly ops take read locks (and must return the
// state unchanged); all others take write locks. A ReadOnly op of a
// zero-size type, such as [CtrGet], repeated on a version nothing has
// changed since, may be answered with the value it returned before,
// without calling Apply.
type Op = adt.Op

// Register is a single mutable cell.
type Register = adt.Register

// NewRegister returns a register state holding v.
func NewRegister(v Value) Register { return adt.NewRegister(v) }

// RegRead reads a register (read lock).
type RegRead = adt.RegRead

// RegWrite overwrites a register (write lock).
type RegWrite = adt.RegWrite

// Counter is an integer counter.
type Counter = adt.Counter

// CtrGet reads a counter (read lock).
type CtrGet = adt.CtrGet

// CtrAdd adds a delta to a counter (write lock).
type CtrAdd = adt.CtrAdd

// Account is a bank-account balance in integer units.
type Account = adt.Account

// AcctResult is the result of an account mutation.
type AcctResult = adt.AcctResult

// AcctBalance reads the balance (read lock).
type AcctBalance = adt.AcctBalance

// AcctDeposit adds to the balance (write lock).
type AcctDeposit = adt.AcctDeposit

// AcctWithdraw subtracts from the balance if funds suffice (write lock);
// the returned AcctResult reports whether it succeeded.
type AcctWithdraw = adt.AcctWithdraw

// IntSet is a set of int64 members.
type IntSet = adt.IntSet

// NewIntSet returns a set state with the given members.
func NewIntSet(members ...int64) IntSet { return adt.NewIntSet(members...) }

// SetInsert inserts a member (write lock).
type SetInsert = adt.SetInsert

// SetRemove removes a member (write lock).
type SetRemove = adt.SetRemove

// SetContains tests membership (read lock).
type SetContains = adt.SetContains

// SetSize returns the cardinality (read lock).
type SetSize = adt.SetSize

// Table is a string-keyed map.
type Table = adt.Table

// NewTable returns a table state with the given contents.
func NewTable(init map[string]Value) Table { return adt.NewTable(init) }

// TblGet reads a key (read lock).
type TblGet = adt.TblGet

// TblPut stores a key (write lock).
type TblPut = adt.TblPut

// TblDelete removes a key (write lock).
type TblDelete = adt.TblDelete

// TakeResult is the result of a CtrTake.
type TakeResult = adt.TakeResult

// CtrTake atomically takes units from a counter if enough remain (write
// lock); prefer it over a read-then-write pair, which can deadlock on
// lock upgrade.
type CtrTake = adt.CtrTake

// Queue is a FIFO of values.
type Queue = adt.Queue

// NewQueue returns a queue state with the given initial contents.
func NewQueue(items ...Value) Queue { return adt.NewQueue(items...) }

// QEnqueue appends a value (write lock).
type QEnqueue = adt.QEnqueue

// QDequeue removes and returns the front value (write lock).
type QDequeue = adt.QDequeue

// QPeek returns the front value without removing it (read lock).
type QPeek = adt.QPeek

// QLen returns the queue length (read lock).
type QLen = adt.QLen

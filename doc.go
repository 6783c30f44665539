// Package nestedtx is a nested-transaction runtime for Go implementing
// Moss' read/write locking algorithm, the subject of Fekete, Lynch,
// Merritt & Weihl, "Nested Transactions and Read/Write Locking" (PODS
// 1987).
//
// A transaction may contain concurrent subtransactions that are atomic
// with respect to one another and may abort independently; the effects of
// an aborted subtransaction are rolled back without disturbing its
// siblings or parent. Concurrency control follows Moss' rule: an access
// may proceed only when every holder of a conflicting lock is an ancestor
// of the access; on commit a transaction's locks (and, for write locks,
// its versions) are inherited by its parent, and on abort they are
// discarded.
//
// # Quick start
//
//	m := nestedtx.NewManager()
//	m.Register("acct", nestedtx.Account{Balance: 100})
//
//	err := m.Run(func(tx *nestedtx.Tx) error {
//		h := tx.Go(func(tx *nestedtx.Tx) error { // concurrent subtransaction
//			_, err := tx.Do("acct", nestedtx.AcctDeposit{Amount: 10})
//			return err
//		})
//		if _, err := tx.Do("acct", nestedtx.AcctBalance{}); err != nil {
//			return err
//		}
//		return h.Wait()
//	})
//
// # The explicit form
//
// Run, Sub and Go wrap a body function in the paper's operations —
// create, then commit or abort. A caller whose transaction is not one
// function body (a server session executing requests as they arrive)
// issues them itself; internal/server is built on exactly this:
//
//	tx := m.Begin()
//	sub, _ := tx.Begin()
//	if _, err := sub.Do("acct", nestedtx.AcctWithdraw{Amount: 70}); err != nil {
//		sub.Abort() // only the subtransaction rolls back
//	} else if err := sub.Commit(); err != nil { ... }
//	err := tx.Commit() // refused while a subtransaction is still open
//
// [Tx.Cancel] dooms a transaction from another goroutine (a deadline, a
// closing connection): its blocked accesses return [ErrAborted] and its
// owner's Commit turns into an abort.
//
// # Correctness
//
// The runtime can record its schedule in the formal vocabulary of the
// paper ([WithRecording]); [Manager.Verify] then machine-checks the run
// against the paper's correctness condition (Theorem 34): the schedule is
// serially correct for every non-orphan transaction.
//
// # Deadlocks
//
// Moss' algorithm blocks accesses, so cycles are possible. The runtime
// detects wait-for cycles and aborts a victim, whose access returns
// [ErrDeadlock]; [Tx.SubRetry] and [Manager.RunRetry] re-run victims.
package nestedtx

package nestedtx_test

import (
	"errors"
	"fmt"

	"nestedtx"
)

// The basic shape: register objects, run a transaction, observe committed
// state.
func ExampleManager_Run() {
	m := nestedtx.NewManager()
	m.MustRegister("balance", nestedtx.Account{Balance: 100})

	err := m.Run(func(tx *nestedtx.Tx) error {
		_, err := tx.Write("balance", nestedtx.AcctDeposit{Amount: 50})
		return err
	})
	if err != nil {
		fmt.Println("aborted:", err)
		return
	}
	s, _ := m.State("balance")
	fmt.Println(s)
	// Output: acct(150)
}

// The explicit form: the paper's operations one call at a time, for
// callers whose transaction is not one function body — a server session,
// a state machine, a REPL.
func ExampleManager_Begin() {
	m := nestedtx.NewManager()
	m.MustRegister("ctr", nestedtx.Counter{})

	tx := m.Begin()
	_, _ = tx.Do("ctr", nestedtx.CtrAdd{Delta: 1})
	sub, _ := tx.Begin()
	_, _ = sub.Do("ctr", nestedtx.CtrAdd{Delta: 100})
	sub.Abort() // rolls back the +100; tx carries on
	if err := tx.Commit(); err != nil {
		fmt.Println("aborted:", err)
		return
	}
	s, _ := m.State("ctr")
	fmt.Println(s)
	// Output: ctr(1)
}

// A subtransaction's abort rolls back only its own effects; the parent
// continues.
func ExampleTx_Sub() {
	m := nestedtx.NewManager()
	m.MustRegister("ctr", nestedtx.Counter{})

	_ = m.Run(func(tx *nestedtx.Tx) error {
		_ = tx.Sub(func(sub *nestedtx.Tx) error {
			_, _ = sub.Do("ctr", nestedtx.CtrAdd{Delta: 100})
			return errors.New("changed my mind") // rolls back the +100
		})
		_, err := tx.Do("ctr", nestedtx.CtrAdd{Delta: 1})
		return err
	})
	s, _ := m.State("ctr")
	fmt.Println(s)
	// Output: ctr(1)
}

// Concurrent subtransactions run as goroutines and are awaited with
// Handle.Wait; the parent cannot commit past an unfinished child.
func ExampleTx_Go() {
	m := nestedtx.NewManager()
	m.MustRegister("ctr", nestedtx.Counter{})

	_ = m.Run(func(tx *nestedtx.Tx) error {
		a := tx.Go(func(tx *nestedtx.Tx) error {
			_, err := tx.Do("ctr", nestedtx.CtrAdd{Delta: 2})
			return err
		})
		b := tx.Go(func(tx *nestedtx.Tx) error {
			_, err := tx.Do("ctr", nestedtx.CtrAdd{Delta: 3})
			return err
		})
		if err := a.Wait(); err != nil {
			return err
		}
		return b.Wait()
	})
	s, _ := m.State("ctr")
	fmt.Println(s)
	// Output: ctr(5)
}

// With recording on, a run can be machine-checked against the paper's
// correctness condition (Theorem 34).
func ExampleManager_Verify() {
	m := nestedtx.NewManager(nestedtx.WithRecording())
	m.MustRegister("r", nestedtx.NewRegister(int64(0)))

	_ = m.Run(func(tx *nestedtx.Tx) error {
		_, err := tx.Write("r", nestedtx.RegWrite{V: int64(42)})
		return err
	})
	if err := m.Verify(); err != nil {
		fmt.Println("verification failed:", err)
		return
	}
	fmt.Println("serially correct")
	// Output: serially correct
}

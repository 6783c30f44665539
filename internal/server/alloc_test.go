package server_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/server"
	"nestedtx/internal/wal"
)

// raceSlack is what the race detector adds to a budget here: the durable
// path's pooled effect lists and write buffers are now and then made
// afresh (see race_on_test.go, and the root package's).
var raceSlack float64

// raceTxDrop is the share of the states of the server's top-level
// transactions the race detector's sync.Pool drops; each drop costs a
// new state and chunk, and a spare for each level below. The budgets
// allow 2·raceTxDrop per server Tx, which covers that. The client's
// handles come from a slab of its own and lose nothing.
var raceTxDrop float64

// TestNetworkedTransactionAllocationBudget is net_small in one process:
// BEGIN, READ, WRITE, COMMIT over loopback, client and server both
// counted. The code allocates 3 times here: the write's new state and
// result boxed on the server and its result decoded on the client. The
// server's Tx (its name inside it) is a fifty-first of a chunk, its
// state one the manager reuses, and the client's Tx (the txid inside it)
// a thirty-first of a chunk, which the per-run count rounds away. With each handle allocated apart it cost 5,
// with each access's object name and the client's txid copied out of the
// frame 8, with the server's transaction name allocated apart 9, and
// with a handle made per BEGIN 11. With the reflective codec it cost 146.
// An idle timeout moves the connection's read and write deadlines on
// every request, which costs nothing more.
func TestNetworkedTransactionAllocationBudget(t *testing.T) {
	for _, cfg := range []server.Config{{}, {IdleTimeout: time.Minute}} {
		mgr := nestedtx.NewManager()
		mgr.MustRegister("ctr-a", nestedtx.Counter{})
		mgr.MustRegister("ctr-b", nestedtx.Counter{N: 1 << 40})
		_, addr := start(t, mgr, cfg)
		c := dial(t, addr)
		body := func(tx *client.Tx) error {
			if _, err := tx.Read("ctr-a", nestedtx.CtrGet{}); err != nil {
				return err
			}
			_, err := tx.Write("ctr-b", nestedtx.CtrAdd{Delta: 1})
			return err
		}
		allocs := testing.AllocsPerRun(500, func() {
			if err := c.Run(body); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("BEGIN; READ; WRITE; COMMIT over loopback, idle timeout %v: %.1f allocations", cfg.IdleTimeout, allocs)
		if slack := raceSlack + 2*raceTxDrop; allocs > 3+slack {
			t.Errorf("BEGIN; READ; WRITE; COMMIT over loopback, idle timeout %v: %.1f allocations, budget 3 + %.1f", cfg.IdleTimeout, allocs, slack)
		}
	}
}

// TestNetworkedSnapshotScanAllocationBudget: a read-only BEGIN, 16 READs
// and a COMMIT over loopback. The READs name their objects by the
// registered strings and their small results need no box, so they cost
// nothing: the scan's allocations are the server's snapshot transaction
// and its name, and the client's handle, its txid inside it. Copying
// each object name out of its frame added 16, and the txid one more.
func TestNetworkedSnapshotScanAllocationBudget(t *testing.T) {
	mgr := nestedtx.NewManager()
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("ctr-%02d", i)
		mgr.MustRegister(names[i], nestedtx.Counter{N: 7})
	}
	_, addr := start(t, mgr, server.Config{})
	c := dial(t, addr)
	scan := func(s *client.Snapshot) error {
		for _, x := range names {
			if _, err := s.Read(x, nestedtx.CtrGet{}); err != nil {
				return err
			}
		}
		return nil
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.RunReadOnly(scan); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("read-only BEGIN; 16 READs; COMMIT over loopback: %.1f allocations", allocs)
	if allocs > 3+raceSlack {
		t.Errorf("read-only BEGIN; 16 READs; COMMIT over loopback: %.1f allocations, budget 3 + %.0f", allocs, raceSlack)
	}
}

// TestNetworkedTransferAllocationBudget is net_durable_bank's transaction
// in one process: BEGIN; SUB; WRITE; COMMIT; SUB; WRITE; COMMIT; COMMIT
// over loopback into a durable manager: 6 allocations, the local durable
// transfer's boxes (TestDurableCommitAllocationBudget in the root
// package) and the client's decoded results among them. The server's
// three Tx are three 51sts of a chunk, with no state of their own, and
// the client's three handles a tenth of one. With each handle allocated apart it cost 11, and with the two
// object names and the three txids copied out of their frames 16.
func TestNetworkedTransferAllocationBudget(t *testing.T) {
	mgr, _, err := nestedtx.OpenDurable("d", nestedtx.DurableOptions{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.CloseWAL() }) // after the server's drain
	mgr.MustRegister("acct-a", nestedtx.Account{Balance: 1 << 40})
	mgr.MustRegister("acct-b", nestedtx.Account{})
	if err := mgr.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	_, addr := start(t, mgr, server.Config{})
	c := dial(t, addr)
	transfer := func(tx *client.Tx) error {
		if err := tx.Sub(func(sub *client.Tx) error {
			_, err := sub.Write("acct-a", nestedtx.AcctWithdraw{Amount: 1})
			return err
		}); err != nil {
			return err
		}
		return tx.Sub(func(sub *client.Tx) error {
			_, err := sub.Write("acct-b", nestedtx.AcctDeposit{Amount: 1})
			return err
		})
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := c.Run(transfer); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("durable two-SUB transfer over loopback: %.1f allocations", allocs)
	if slack := raceSlack + 3*2*raceTxDrop; allocs > 6+slack {
		t.Errorf("durable two-SUB transfer over loopback: %.1f allocations, budget 6 + %.1f", allocs, slack)
	}
}

// TestSessionDoesNotRetainItsLargestFrame: the reused per-connection
// buffers must not turn one large frame into memory held for the life of
// the session. One 2 MiB STATE reply, then a thousand small frames on the
// same session and client: the heap in use comes back to where it was.
func TestSessionDoesNotRetainItsLargestFrame(t *testing.T) {
	const rows = 2 << 20 / 64 // about 64 encoded bytes a row
	big := make(map[string]nestedtx.Value, rows)
	for i := 0; i < rows; i++ {
		big[fmt.Sprintf("key-%08d", i)] = "0123456789012345678901234567890123456789"
	}
	mgr := nestedtx.NewManager()
	mgr.MustRegister("ctr", nestedtx.Counter{})
	mgr.MustRegister("big", nestedtx.NewTable(big))
	big = nil
	_, addr := start(t, mgr, server.Config{})
	c := dial(t, addr)
	small := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.State("ctr"); err != nil {
				t.Fatal(err)
			}
		}
	}
	inUse := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	small(100) // both ends' buffers exist
	before := inUse()
	st, err := c.State("big")
	if err != nil {
		t.Fatal(err)
	}
	if n := st.(nestedtx.Table).Len(); n != rows {
		t.Fatalf("big table came back with %d rows", n)
	}
	st = nil
	small(1000)
	if grown := inUse() - before; grown > 256<<10 {
		t.Errorf("heap in use grew by %d KiB across a 2 MiB frame and 1000 small ones, want at most 256", grown>>10)
	}
}

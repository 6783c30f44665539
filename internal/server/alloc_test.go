package server_test

import (
	"fmt"
	"runtime"
	"testing"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/server"
)

// TestNetworkedTransactionAllocationBudget is net_small in one process:
// BEGIN, READ, WRITE, COMMIT over loopback, client and server both
// counted. The code allocates 8 times here, the transaction's Tx — its
// name inside it — among them; with the name allocated apart it cost 9, a
// finished handle is reused, and with one made per BEGIN the exchange
// cost 11. With the reflective codec it cost 146.
func TestNetworkedTransactionAllocationBudget(t *testing.T) {
	mgr := nestedtx.NewManager()
	mgr.MustRegister("ctr-a", nestedtx.Counter{})
	mgr.MustRegister("ctr-b", nestedtx.Counter{N: 1 << 40})
	_, addr := start(t, mgr, server.Config{})
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
	t.Logf("BEGIN; READ; WRITE; COMMIT over loopback: %.1f allocations", allocs)
	if allocs > 9 {
		t.Errorf("BEGIN; READ; WRITE; COMMIT over loopback: %.1f allocations, budget 9", allocs)
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

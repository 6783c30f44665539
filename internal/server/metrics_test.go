package server_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/obs"
	"nestedtx/internal/server"
)

// TestMetricsEndToEnd drives a contended workload over the wire and
// then reconciles, within one METRICS payload, the registry's histograms
// against the server's and the lock manager's counters at quiescence. The invariants are exact, not bounds: every observation
// lands in exactly one histogram bucket, so the histogram counts must
// agree with the independent counters to the unit.
func TestMetricsEndToEnd(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithTracing(1 << 15))
	mgr.MustRegister("a", nestedtx.Counter{})
	mgr.MustRegister("b", nestedtx.Counter{})
	_, addr := start(t, mgr, server.Config{})

	// transfer is one transaction of worker w: odd and even workers write
	// a and b in opposite orders, which forces waits and deadlock victims,
	// so every histogram gets data. meet, when set, runs between the two
	// writes of the first attempt.
	transfer := func(c *client.Client, w int, meet func()) error {
		first, second := "a", "b"
		if w%2 == 1 {
			first, second = "b", "a"
		}
		return c.RunRetry(50, func(tx *client.Tx) error {
			if _, err := tx.Write(first, nestedtx.CtrAdd{Delta: 1}); err != nil {
				return err
			}
			if meet != nil {
				meet()
				meet = nil
			}
			_, err := tx.Write(second, nestedtx.CtrAdd{Delta: 1})
			return err
		})
	}

	// The prelude: two clients each write their first object, meet, then
	// write the other one. That is a deadlock however the run is
	// scheduled, so the contention check below cannot come up empty. Both
	// transactions retry to a commit.
	const prelude = 2
	var met, wg sync.WaitGroup
	met.Add(prelude)
	meet := func() { met.Done(); met.Wait() }
	perrs := make([]error, prelude)
	for w := range perrs {
		c := dial(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			perrs[w] = transfer(c, w, meet)
		}()
	}
	wg.Wait()
	for w, err := range perrs {
		if err != nil {
			t.Fatalf("prelude worker %d: %v", w, err)
		}
	}

	const workers, txPer = 6, 25
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithTimeout(20*time.Second))
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for j := 0; j < txPer; j++ {
				if err := transfer(c, w, nil); err != nil {
					errc <- fmt.Errorf("worker %d tx %d: %w", w, j, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	c := dial(t, addr)
	m, err := c.Metrics(false)
	if err != nil {
		t.Fatal(err)
	}

	// Outcome counters line up 1:1 with the server's (every BEGIN runs
	// exactly one top-level transaction; none were cancelled mid-begin).
	if m.TxCommits != m.Commits || m.TxAborts != m.Aborts {
		t.Errorf("outcome mismatch: registry %d/%d, server counters %d/%d",
			m.TxCommits, m.TxAborts, m.Commits, m.Aborts)
	}
	if want := uint64(prelude + workers*txPer); m.TxCommits != want {
		t.Errorf("tx_commits = %d, want %d", m.TxCommits, want)
	}
	// Every finished top-level transaction was timed exactly once.
	if m.TxLatency.Count != m.Commits+m.Aborts {
		t.Errorf("tx_latency count %d != commits %d + aborts %d",
			m.TxLatency.Count, m.Commits, m.Aborts)
	}
	// Every blocked acquisition landed in the lock-wait histogram exactly
	// once: granted (Waits), deadlock victim, or cancelled.
	if m.LockWait.Count != m.Waits+m.VictimsDeadlock+m.VictimsCancelled {
		t.Errorf("lock_wait count %d != waits %d + victims %d+%d",
			m.LockWait.Count, m.Waits, m.VictimsDeadlock, m.VictimsCancelled)
	}
	// The victim breakdown reconciles with the lock manager's own count.
	if m.VictimsDeadlock != m.Deadlocks {
		t.Errorf("victims_deadlock %d != lock_deadlocks %d", m.VictimsDeadlock, m.Deadlocks)
	}
	if m.Victims != m.VictimsDeadlock+m.VictimsCancelled {
		t.Errorf("victims %d != %d + %d", m.Victims, m.VictimsDeadlock, m.VictimsCancelled)
	}
	// Every access acquisition was timed exactly once, whatever its fate.
	if m.OpLatency.Count != m.Acquires+m.VictimsDeadlock+m.VictimsCancelled {
		t.Errorf("op_latency count %d != acquires %d + victims %d+%d",
			m.OpLatency.Count, m.Acquires, m.VictimsDeadlock, m.VictimsCancelled)
	}
	// The opposite-order workload must actually have contended.
	if m.Waits == 0 || m.VictimsDeadlock == 0 {
		t.Errorf("workload did not contend: waits %d, deadlock victims %d",
			m.Waits, m.VictimsDeadlock)
	}
	// Quantiles are monotone and clamped to the max.
	for name, h := range map[string]obs.HistSnapshot{
		"op_latency": m.OpLatency, "tx_latency": m.TxLatency, "lock_wait": m.LockWait,
	} {
		if h.Quantile(50) <= 0 || h.Quantile(50) > h.Quantile(90) || h.Quantile(90) > h.Quantile(99) || h.Quantile(99) > h.Max {
			t.Errorf("%s quantiles not monotone positive: %+v", name, h)
		}
	}
	// Quiescent gauges read level, not rate: nothing is blocked now.
	if m.QueuedWaiters != 0 || m.ContendedObjects != 0 {
		t.Errorf("gauges nonzero at quiescence: queued %d, contended %d",
			m.QueuedWaiters, m.ContendedObjects)
	}

	// The dump carries the trace ring; with a ring larger than the run,
	// nothing was evicted and the COMMIT entries for top-level
	// transactions count exactly the commits.
	md, err := c.Metrics(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(md.Trace) == 0 {
		t.Fatal("dump returned no trace entries")
	}
	if md.TraceDropped != 0 {
		t.Fatalf("ring evicted %d entries; enlarge the test's WithTracing capacity", md.TraceDropped)
	}
	topCommits := uint64(0)
	for i, e := range md.Trace {
		if i > 0 && e.Seq != md.Trace[i-1].Seq+1 {
			t.Fatalf("trace not in sequence order at %d", i)
		}
		switch e.Kind {
		case "CREATE", "REQUEST_COMMIT", "COMMIT", "ABORT", "LOCK_WAIT", "LOCK_ACQUIRE":
		default:
			t.Fatalf("unexpected trace kind %q", e.Kind)
		}
		if e.Kind == "COMMIT" && strings.Count(e.T, ".") == 1 {
			topCommits++ // top-level names are "T0.n"
		}
	}
	if topCommits != md.TxCommits {
		t.Errorf("trace has %d top-level COMMIT entries, metrics report %d commits",
			topCommits, md.TxCommits)
	}
}

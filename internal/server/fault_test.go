package server_test

// The fault-injection suite: workloads driven through the faultnet
// proxy while connections are stalled, cut and partitioned
// mid-transaction. The paper scopes out crashes ("our model does not
// yet include crashes", §1) but proves Theorem 34 for every non-orphan
// transaction; an abandoned network client is exactly the orphan
// scenario, so these tests assert the deployment-level counterpart:
// the server reclaims every lock a dead connection held
// (CheckInvariants), counters stay consistent with committed state,
// and a recording-mode run's drained schedule still passes
// Manager.Verify — Theorem 34 holds under network faults.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/faultnet"
	"nestedtx/internal/server"
)

// proxyFor puts a faultnet proxy in front of addr, closed at cleanup.
func proxyFor(t *testing.T, addr string, faults faultnet.Faults, seed int64) *faultnet.Proxy {
	t.Helper()
	p, err := faultnet.New(addr, faults, seed)
	if err != nil {
		t.Fatalf("faultnet: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// checkQuiescent drains the server, then asserts the lock table is
// clean (every lock reclaimed) and, in recording mode, that the drained
// schedule machine-checks against Theorem 34.
func checkQuiescent(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.Manager().CheckInvariants(); err != nil {
		t.Fatalf("lock-table invariants after faults: %v", err)
	}
	if err := srv.Manager().Verify(); err != nil {
		t.Fatalf("Verify after faulted run: %v", err)
	}
}

// TestTimeoutAbortClearsHandles is the regression for the session
// desync bug: after a per-request timeout aborts a transaction tree
// with an open subtransaction, follow-up requests on the parent used to
// fail forever with "bad_request: has open subtransaction". They must
// report the abort, and the session must stay usable. Driven through
// the fault proxy (transparent here; the timeout is the fault).
func TestTimeoutAbortClearsHandles(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("c", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{RequestTimeout: 150 * time.Millisecond})
	px := proxyFor(t, addr, faultnet.Faults{}, 1)

	holder := dial(t, addr)
	htx, err := holder.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := htx.Write("c", nestedtx.CtrAdd{Delta: 1}); err != nil {
		t.Fatal(err)
	}

	victim := dial(t, px.Addr())
	vtx, err := victim.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// The timeout strikes inside an open subtransaction: the whole tree
	// aborts server-side, leaving (pre-fix) stale handles behind.
	suberr := vtx.Sub(func(sub *client.Tx) error {
		_, err := sub.Write("c", nestedtx.CtrAdd{Delta: 10})
		return err
	})
	if !errors.Is(suberr, client.ErrTimeout) {
		t.Fatalf("blocked sub write: got %v, want ErrTimeout", suberr)
	}
	// Pre-fix: bad_request "has open subtransaction". Post-fix: the dead
	// tree reads as aborted.
	if err := vtx.Commit(); !errors.Is(err, nestedtx.ErrAborted) {
		t.Fatalf("commit after timeout abort: got %v, want ErrAborted", err)
	}
	// The stale handle was cleared by that touch (further use is a
	// plain unknown-handle error, not a desync)...
	if err := vtx.Abort(); err == nil || errors.Is(err, nestedtx.ErrAborted) {
		t.Fatalf("second touch of cleared handle: got %v, want unknown_tx", err)
	}
	// ...and the session is fully usable for new transactions.
	if err := htx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := victim.Run(func(tx *client.Tx) error {
		_, err := tx.Write("c", nestedtx.CtrAdd{Delta: 100})
		return err
	}); err != nil {
		t.Fatalf("fresh transaction on recovered session: %v", err)
	}
	st, err := mgr.State("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(nestedtx.Counter).N; got != 101 {
		t.Fatalf("counter = %d, want 101 (holder +1, recovered +100, timed-out +10 rolled back)", got)
	}
	checkQuiescent(t, srv)
}

// TestStalledConnectionPoisonsAndServerReclaims: a byte-level stall past
// the client deadline poisons the client (fail-fast ErrConnLost, no
// stale-frame reads) and the server reclaims the abandoned
// transaction's resources once the connection goes.
func TestStalledConnectionPoisonsAndServerReclaims(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("c", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{IdleTimeout: 200 * time.Millisecond})
	// Stall the client→server direction for 2s once one frame has passed.
	px := proxyFor(t, addr, faultnet.Faults{StallAfterFrames: 1, StallFor: 2 * time.Second}, 2)

	c, err := client.Dial(px.Addr(), client.WithTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx, err := c.Begin() // frame 1 passes; the stall now arms
	if err != nil {
		t.Fatal(err)
	}
	// Frame 2 hits the stall: the client deadline fires first.
	_, err = tx.Write("c", nestedtx.CtrAdd{Delta: 7})
	if !errors.Is(err, client.ErrConnLost) {
		t.Fatalf("stalled write: got %v, want ErrConnLost", err)
	}
	// Poisoned: instant failures, no reads of late frames.
	startAt := time.Now()
	if err := c.Ping(); !errors.Is(err, client.ErrConnLost) {
		t.Fatalf("ping after poison: %v", err)
	}
	if d := time.Since(startAt); d > 100*time.Millisecond {
		t.Fatalf("poisoned call took %v; want fail-fast", d)
	}
	c.Close()
	// The server must reclaim the orphaned session (teardown on the
	// closed connection, or the idle reaper as backstop): a second
	// client's conflicting write succeeds.
	c2 := dial(t, addr)
	if err := c2.Run(func(tx *client.Tx) error {
		_, err := tx.Write("c", nestedtx.CtrAdd{Delta: 1})
		return err
	}); err != nil {
		t.Fatalf("write after orphan reclaim: %v", err)
	}
	st, _ := mgr.State("c")
	if got := st.(nestedtx.Counter).N; got != 1 {
		t.Fatalf("counter = %d, want 1 (orphan's +7 never committed)", got)
	}
	checkQuiescent(t, srv)
}

// TestPoolReconnectsThroughCuts: every connection dies after a few
// frames, so each transaction costs the pool a redial — and the
// workload still completes exactly, because a cut connection's open
// transaction aborts server-side before the retry re-runs the body.
func TestPoolReconnectsThroughCuts(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("hot", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{IdleTimeout: 300 * time.Millisecond})
	// Cut every connection after 8 client→server frames: a health-check
	// ping plus two three-frame transactions, then death mid-stream.
	px := proxyFor(t, addr, faultnet.Faults{CutAfterFrames: 8}, 3)

	pool, err := client.NewPool(px.Addr(), 2, client.WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const want = 20
	completed := 0
	for i := 0; i < want; i++ {
		if err := pool.RunRetry(50, func(tx *client.Tx) error {
			_, err := tx.Write("hot", nestedtx.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			t.Fatalf("workload item %d through cuts: %v", i, err)
		}
		completed++
	}
	if ps := pool.Stats(); ps.Redials == 0 || ps.Discarded == 0 {
		t.Fatalf("pool never reconnected (stats %+v) — cuts not exercised", ps)
	}
	if _, cut := px.Stats(); cut == 0 {
		t.Fatal("proxy cut nothing")
	}
	// Exact accounting despite lost COMMIT responses: every server-side
	// commit is exactly one +1, so state must equal the commit counter.
	st, _ := mgr.State("hot")
	got := st.(nestedtx.Counter).N
	if commits := srv.Counters().Commits; int64(got) != int64(commits) {
		t.Fatalf("hot = %d but server committed %d: counters drifted under faults", got, commits)
	}
	if got < int64(completed) {
		t.Fatalf("hot = %d < %d client-observed completions", got, completed)
	}
	checkQuiescent(t, srv)
}

// TestPanickingPooledBodyReleasesItsLocks: a pooled body that panics
// while its transaction holds x must not leave that transaction open on
// a connection the pool hands out again. The panic propagates, and the
// next RunRetry on x commits at once instead of waiting out the server's
// request timeout behind the abandoned transaction.
func TestPanickingPooledBodyReleasesItsLocks(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("x", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{})
	pool, err := client.NewPool(addr, 1, client.WithTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	add := func(tx *client.Tx) error {
		_, err := tx.Write("x", nestedtx.CtrAdd{Delta: 1})
		return err
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("the body's panic did not propagate")
			}
		}()
		pool.Run(func(tx *client.Tx) error {
			if err := add(tx); err != nil {
				return err
			}
			panic("body fails holding x")
		})
	}()
	begun := time.Now()
	if err := pool.RunRetry(4, add); err != nil {
		t.Fatalf("RunRetry after a panicking body: %v", err)
	}
	if d := time.Since(begun); d > time.Second {
		t.Fatalf("RunRetry on x took %v: the panicked transaction kept its lock", d)
	}
	if st, _ := mgr.State("x"); st.(nestedtx.Counter).N != 1 {
		t.Fatalf("x = %v, want 1 (the panicked write aborted)", st)
	}
	checkQuiescent(t, srv)
}

// TestFaultInjectionWorkload is the acceptance end-to-end: a pooled
// workload runs through a latency/jitter proxy while a chaos goroutine
// cuts every live connection repeatedly and imposes a full
// partition/heal cycle. Afterwards: locks all reclaimed, counters
// consistent with committed state, no goroutine leaks, and the recorded
// schedule verifies (Theorem 34 under network faults).
func TestFaultInjectionWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection e2e skipped in -short mode")
	}
	startGoroutines := runtime.NumGoroutine()

	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("hot", nestedtx.Counter{})
	mgr.MustRegister("warm", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{
		IdleTimeout:    400 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
	})
	px := proxyFor(t, addr, faultnet.Faults{Latency: 200 * time.Microsecond, Jitter: time.Millisecond}, 4)

	pool, err := client.NewPool(px.Addr(), 4, client.WithTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	// Chaos: cut all live connections every 25ms for a while, with one
	// full partition/heal cycle in the middle, then go quiet.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for i := 0; i < 12; i++ {
			time.Sleep(25 * time.Millisecond)
			if i == 6 {
				px.Partition()
				time.Sleep(150 * time.Millisecond)
				px.Heal()
				continue
			}
			px.CutAll()
		}
	}()

	const workers, perWorker = 4, 8
	var wg sync.WaitGroup
	var failures atomic.Int64
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				err := pool.RunRetry(200, func(tx *client.Tx) error {
					// Nested conflicting work mid-chaos: the hot counter
					// inside a subtransaction, the warm one at top level.
					if err := tx.Sub(func(sub *client.Tx) error {
						_, err := sub.Write("hot", nestedtx.CtrAdd{Delta: 1})
						return err
					}); err != nil {
						return err
					}
					_, err := tx.Write("warm", nestedtx.CtrAdd{Delta: 1})
					return err
				})
				if err != nil {
					failures.Add(1)
					errc <- fmt.Errorf("worker %d item %d: %w", w, j, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	<-chaosDone
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.Fatalf("%d workers failed despite retries through reconnects", failures.Load())
	}

	// Counters stay consistent: each server-side commit is exactly one
	// +1 to each counter, whatever the clients managed to observe.
	commits := int64(srv.Counters().Commits)
	for _, obj := range []string{"hot", "warm"} {
		st, err := mgr.State(obj)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.(nestedtx.Counter).N; got != commits {
			t.Fatalf("%s = %d but server committed %d", obj, got, commits)
		}
	}
	if commits < workers*perWorker {
		t.Fatalf("commits = %d < %d completed workloads", commits, workers*perWorker)
	}
	if ps := pool.Stats(); ps.Redials == 0 {
		t.Logf("note: pool stats %+v (chaos may have missed live conns)", ps)
	}
	// The pool measured its calls: every completed transaction is at
	// least three round-trips, with sane quantiles.
	if ps := pool.Stats(); ps.Calls < uint64(3*workers*perWorker) ||
		ps.P50 <= 0 || ps.P50 > ps.P90 || ps.P90 > ps.P99 || ps.P99 > ps.Max {
		t.Errorf("pool RTT stats implausible: %+v", ps)
	}

	// METRICS over the wire while sessions may still be unwinding from
	// the last cuts: structural sanity only — the exact reconciliation
	// below waits for true quiescence.
	mc := dial(t, addr)
	wm, err := mc.Metrics(false)
	if err != nil {
		t.Fatal(err)
	}
	if wm.TxLatency.Count == 0 || wm.OpLatency.Count == 0 {
		t.Errorf("live METRICS empty after workload: %+v", wm)
	}
	if h := wm.TxLatency; h.Quantile(50) > h.Quantile(90) || h.Quantile(90) > h.Quantile(99) ||
		h.Quantile(99) > h.Max {
		t.Errorf("live METRICS quantiles not monotone: %+v", wm.TxLatency)
	}
	mc.Close()

	// Drain, reclaim, verify: Theorem 34 under network faults.
	pool.Close()
	px.Close()
	checkQuiescent(t, srv)

	// Exact metric reconciliation at quiescence: chaos (cuts, timeouts,
	// partitions, reaping) must not lose or double-count an observation.
	met := srv.Manager().Metrics().Snapshot()
	lk := srv.Manager().Stats()
	cnt := srv.Counters()
	// Every blocked acquisition landed in the lock-wait histogram exactly
	// once: granted (Waits), deadlock victim, or cancelled by an abort.
	if met.LockWait.Count != lk.Waits+met.VictimsDeadlock+met.VictimsCancelled {
		t.Errorf("lock_wait count %d != waits %d + victims %d+%d",
			met.LockWait.Count, lk.Waits, met.VictimsDeadlock, met.VictimsCancelled)
	}
	// The victim breakdown sums to the total and the deadlock slice
	// matches the lock manager's cycle count.
	if met.VictimsDeadlock != lk.Deadlocks {
		t.Errorf("victims_deadlock %d != lock deadlocks %d", met.VictimsDeadlock, lk.Deadlocks)
	}
	if met.Victims != met.VictimsDeadlock+met.VictimsCancelled {
		t.Errorf("victim sum broken: %d != %d + %d",
			met.Victims, met.VictimsDeadlock, met.VictimsCancelled)
	}
	// Every access acquisition was timed exactly once, whatever its fate.
	if met.OpLatency.Count != lk.Acquires+met.VictimsDeadlock+met.VictimsCancelled {
		t.Errorf("op_latency count %d != acquires %d + victims %d+%d",
			met.OpLatency.Count, lk.Acquires, met.VictimsDeadlock, met.VictimsCancelled)
	}
	// Commit accounting is exact; aborts may exceed the runtime's count
	// by begins that were cancelled before the transaction body started
	// (session teardown racing BEGIN).
	if met.TxCommits != cnt.Commits {
		t.Errorf("tx_commits %d != server commits %d", met.TxCommits, cnt.Commits)
	}
	if met.TxAborts > cnt.Aborts {
		t.Errorf("tx_aborts %d > server aborts %d", met.TxAborts, cnt.Aborts)
	}
	if met.TxLatency.Count != met.TxCommits+met.TxAborts {
		t.Errorf("tx_latency count %d != commits %d + aborts %d",
			met.TxLatency.Count, met.TxCommits, met.TxAborts)
	}
	if met.QueuedWaiters != 0 || met.ContendedObjects != 0 {
		t.Errorf("gauges nonzero at quiescence: %+v", met)
	}

	// No goroutine leaks: sessions, proxies, pool and chaos all gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= startGoroutines+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: started with %d, still %d\n%s",
				startGoroutines, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

package server_test

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/wal"
)

// TestReplicaPoolRunVsFailoverRace hammers RunRetry/State/Leader against
// a concurrent leader switch under -race. Failover repoints the pool's
// leader under its mutex while transactions borrow, return and redial
// connections: no race-detector report, no spurious ErrPoolClosed, and
// the run survives a mid-flight failover.
func TestReplicaPoolRunVsFailoverRace(t *testing.T) {
	fs := wal.NewMemFS()
	mgr, leaderSrv, leaderAddr := startLeader(t, fs, "leader")
	mgr.MustRegister("ctr", nestedtx.Counter{})
	fsrv, f, followerAddr := startFollower(t, fs, "follower", leaderAddr)

	rp, err := client.NewReplicaPool(leaderAddr, []string{followerAddr}, 2,
		client.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatalf("NewReplicaPool: %v", err)
	}
	defer rp.Close()

	// One write so the replica has the object before readers start.
	if err := rp.Run(func(tx *client.Tx) error {
		_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
		return err
	}); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	waitUntil(t, "replica catch-up", func() bool { return caughtUpState(f, mgr, "ctr", 1) })

	done := make(chan struct{})
	var successes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Errors are expected while the leader is down; what must
				// not happen is a race-detector report or a successful
				// write getting lost.
				if rp.RunRetry(4, func(tx *client.Tx) error {
					_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
					return err
				}) == nil {
					successes.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rp.State("ctr")
				rp.Leader()
				rp.Stats()
				rp.Failover() // exercise probe coalescing under load
			}
		}()
	}

	// Let traffic flow against the old leader, then kill it and promote
	// the follower while the hammer keeps going.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := leaderSrv.Shutdown(ctx); err != nil {
		t.Fatalf("leader shutdown: %v", err)
	}
	// Shipping is asynchronous and the leader is shut down without
	// draining the follower: what the old leader committed beyond what the
	// follower has applied by now may never arrive, acknowledged or not.
	counter := func(st nestedtx.State, err error) int64 {
		if err != nil {
			t.Fatalf("reading ctr between shutdown and promotion: %v", err)
		}
		return st.(nestedtx.Counter).N
	}
	unshipped := counter(mgr.State("ctr")) - counter(f.State("ctr"))
	if _, err := fsrv.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	waitUntil(t, "a write to land on the new leader", func() bool {
		before := successes.Load()
		rp.Failover()
		return successes.Load() > before || rp.RunRetry(4, func(tx *client.Tx) error {
			_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
			return err
		}) == nil
	})
	time.Sleep(100 * time.Millisecond)
	close(done)
	wg.Wait()

	if got := rp.Stats().Failovers; got != 1 {
		t.Fatalf("failovers = %d, want exactly 1 (probe rounds must coalesce)", got)
	}
	if rp.Leader() != followerAddr {
		t.Fatalf("leader = %s, want promoted %s", rp.Leader(), followerAddr)
	}
	// The new leader must still be writable through the pool the
	// failover installed.
	if err := rp.Run(func(tx *client.Tx) error {
		_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
		return err
	}); err != nil {
		t.Fatalf("write after hammer: %v", err)
	}
	st, err := rp.State("ctr")
	if err != nil {
		t.Fatalf("State after hammer: %v", err)
	}
	// Every acknowledged write the follower had a chance to receive is in
	// the final state. (The state may exceed the bound: a commit whose ack
	// was cut by the shutdown still applied, and the follower may have
	// applied more of the old leader's tail after it was measured.)
	if n, acked := st.(nestedtx.Counter).N, successes.Load(); n < acked-unshipped {
		t.Fatalf("final state %d < %d acknowledged writes − %d the old leader never shipped", n, acked, unshipped)
	}
}

// blackhole returns the address of a listener that accepts connections
// and then never answers — the worst-case probe target: the TCP dial
// succeeds, so only the client's I/O timeout ends the probe. accepted
// signals the first connection.
func blackhole(t *testing.T) (addr string, accepted <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ch := make(chan struct{}, 16)
	var conns []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	return ln.Addr().String(), ch
}

// TestReplicaPoolReadsProceedDuringProbe is the regression test for
// Failover holding the state mutex across its network probes: with a
// probe stuck on a blackholed endpoint (dial OK, no response until the
// 3s I/O timeout), Leader() and a replica State read must answer in
// microseconds, not after the probe gives up. Before the fix both
// blocked on the pool's mutex for the full endpoints×timeout window.
func TestReplicaPoolReadsProceedDuringProbe(t *testing.T) {
	fs := wal.NewMemFS()
	mgr, leaderSrv, leaderAddr := startLeader(t, fs, "leader")
	mgr.MustRegister("ctr", nestedtx.Counter{})
	fsrv, f, followerAddr := startFollower(t, fs, "follower", leaderAddr)
	bhAddr, accepted := blackhole(t)

	rp, err := client.NewReplicaPool(leaderAddr, []string{followerAddr, bhAddr}, 2,
		client.WithTimeout(3*time.Second))
	if err != nil {
		t.Fatalf("NewReplicaPool: %v", err)
	}
	defer rp.Close()

	if err := rp.Run(func(tx *client.Tx) error {
		_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 7})
		return err
	}); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	// Wait for catch-up via the follower handle directly — State
	// would advance the round-robin cursor onto the blackhole.
	waitUntil(t, "replica catch-up", func() bool { return caughtUpState(f, mgr, "ctr", 7) })

	// Kill the leader so the probe walks the endpoint list: the dead
	// leader fails fast, the follower answers "follower", and the
	// blackhole pins the probe until the I/O timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := leaderSrv.Shutdown(ctx); err != nil {
		t.Fatalf("leader shutdown: %v", err)
	}
	probeDone := make(chan error, 1)
	go func() { probeDone <- rp.Failover() }()

	select {
	case <-accepted:
	case <-time.After(10 * time.Second):
		t.Fatal("probe never reached the blackholed endpoint")
	case err := <-probeDone:
		t.Fatalf("probe finished before reaching the blackhole: %v", err)
	}

	// Probe is now parked on the blackhole holding only probeMu. State
	// reads and replica reads must not notice.
	start := time.Now()
	if got := rp.Leader(); got != leaderAddr {
		t.Fatalf("Leader() = %s, want still %s mid-probe", got, leaderAddr)
	}
	st, err := rp.State("ctr")
	if err != nil {
		t.Fatalf("State during probe: %v", err)
	}
	if st.(nestedtx.Counter).N != 7 {
		t.Fatalf("State during probe = %v, want 7", st)
	}
	if d := time.Since(start); d > 1500*time.Millisecond {
		t.Fatalf("reads took %v while a probe was in flight; they must not wait for it", d)
	}

	// The stuck round ends with no leader found (the follower was never
	// promoted); it must report failure, not misclassify.
	select {
	case err := <-probeDone:
		if err == nil {
			t.Fatal("Failover found a leader in a cluster with none")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Failover never returned from the blackholed probe")
	}

	// Promote the follower: the next probe finds it before reaching the
	// blackhole (endpoint order), so recovery is quick and complete.
	if _, err := fsrv.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if err := rp.Failover(); err != nil {
		t.Fatalf("Failover after promote: %v", err)
	}
	if rp.Leader() != followerAddr {
		t.Fatalf("leader = %s, want promoted %s", rp.Leader(), followerAddr)
	}
	if err := rp.Run(func(tx *client.Tx) error {
		_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
		return err
	}); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
}

package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/faultnet"
	"nestedtx/internal/repl"
	"nestedtx/internal/server"
	"nestedtx/internal/wal"
)

// startLeader opens a durable manager in dir and serves it — a
// replication leader (the server attaches a shipper to any durable
// manager).
func startLeader(t *testing.T, fs wal.FS, dir string) (*nestedtx.Manager, *server.Server, string) {
	t.Helper()
	mgr, _, err := nestedtx.OpenDurable(dir, nestedtx.DurableOptions{FS: fs})
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	srv, addr := start(t, mgr, server.Config{})
	return mgr, srv, addr
}

// startFollower opens dir as a replica of leaderAddr and serves it
// read-only. The caller owns promotion.
func startFollower(t *testing.T, fs wal.FS, dir, leaderAddr string) (*server.Server, *repl.Follower, string) {
	t.Helper()
	f, err := repl.OpenFollower(dir, wal.Options{FS: fs})
	if err != nil {
		t.Fatalf("OpenFollower(%s): %v", dir, err)
	}
	srv := server.New(nil, server.Config{Follower: f})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	go f.Run(leaderAddr)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("follower shutdown: %v", err)
		}
	})
	return srv, f, ln.Addr().String()
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// caughtUp reports whether the follower's log has every record the
// leader's durable log has. Note the follower logs a batch before
// applying its effects, so a read of follower *states* right after this
// returns true may still trail by the final batch — tests that assert
// on state values use caughtUpState instead.
func caughtUp(f *repl.Follower, mgr *nestedtx.Manager) bool {
	st, ok := mgr.WalStats()
	return ok && f.Status().NextLSN == st.DurableLSN
}

// caughtUpState additionally waits for the follower's applied counter
// state to reach n.
func caughtUpState(f *repl.Follower, mgr *nestedtx.Manager, obj string, n int64) bool {
	if !caughtUp(f, mgr) {
		return false
	}
	st, err := f.State(obj)
	return err == nil && st.(nestedtx.Counter).N == n
}

// TestReplicaServesReadsRejectsWrites is the basic leader→follower
// pipeline: commits on the leader appear in the replica's states, the
// replica serves them over STATE, rejects every transaction verb with
// CodeReadOnly, and both sides report status and lag.
func TestReplicaServesReadsRejectsWrites(t *testing.T) {
	fs := wal.NewMemFS()
	mgr, _, leaderAddr := startLeader(t, fs, "leader")
	mgr.MustRegister("ctr", nestedtx.Counter{})
	mgr.MustRegister("reg", nestedtx.NewRegister(int64(0)))

	_, f, followerAddr := startFollower(t, fs, "follower", leaderAddr)
	for i := 0; i < 25; i++ {
		if err := mgr.Run(func(tx *nestedtx.Tx) error {
			if _, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 2}); err != nil {
				return err
			}
			_, err := tx.Write("reg", nestedtx.RegWrite{V: int64(i)})
			return err
		}); err != nil {
			t.Fatalf("leader commit %d: %v", i, err)
		}
	}
	waitUntil(t, "follower catch-up", func() bool { return caughtUpState(f, mgr, "ctr", 50) })

	fc := dial(t, followerAddr)
	st, err := fc.State("ctr")
	if err != nil {
		t.Fatalf("replica State(ctr): %v", err)
	}
	if st.(nestedtx.Counter).N != 50 {
		t.Fatalf("replica ctr = %v, want 50", st)
	}

	// Every transaction verb is refused read-only — with the sentinel
	// clients can switch leaders on.
	if _, err := fc.Begin(); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("BEGIN on replica: err = %v, want ErrReadOnly", err)
	}

	// Status both sides. The follower acks a batch after applying it, so
	// the leader may learn of the last ack after the follower's states
	// show it: wait until the leader's status does.
	lc := dial(t, leaderAddr)
	waitUntil(t, "the leader to see the follower's last ack", func() bool {
		m, err := lc.Metrics(false)
		if err != nil {
			t.Fatalf("leader Metrics: %v", err)
		}
		ls := m.ReplStatus
		return ls != nil && len(ls.Followers) == 1 && ls.Followers[0].AckLSN == ls.DurableLSN
	})
	rm, err := fc.Metrics(false)
	if err != nil {
		t.Fatalf("replica Metrics: %v", err)
	}
	rs := rm.ReplStatus
	if rs.Role != "follower" || !rs.Connected || rs.LagRecords != 0 {
		t.Fatalf("replica status = %+v, want connected follower at lag 0", rs)
	}
	lsm, err := lc.Metrics(false)
	if err != nil {
		t.Fatalf("leader Metrics: %v", err)
	}
	ls := lsm.ReplStatus
	if ls.Role != "leader" || len(ls.Followers) != 1 || ls.Followers[0].AckLSN != ls.DurableLSN {
		t.Fatalf("leader status = %+v, want one fully-acked follower", ls)
	}

	// Lag is observable end-to-end through METRICS on both roles.
	lm, err := lc.Metrics(false)
	if err != nil {
		t.Fatalf("leader Metrics: %v", err)
	}
	if lm.ReplFollowers != 1 || lm.ReplBatches == 0 || lm.ReplAcks == 0 || lm.ShipLatency.Count == 0 {
		t.Fatalf("leader repl metrics not populated: %+v", lm)
	}
	fm, err := fc.Metrics(false)
	if err != nil {
		t.Fatalf("follower Metrics: %v", err)
	}
	// 27 records: 25 commits plus the two registrations.
	if fm.ReplRecordsApplied < 27 || fm.ReplLagRecords != 0 {
		t.Fatalf("follower repl metrics not populated: %+v", fm)
	}
}

// TestReplicationStreamOutlivesIdleTimeout: a replication stream has no
// idle deadline. A caught-up follower left quiet for many times the
// leader's IdleTimeout keeps its one connection: the leader counts no
// new session and reaps none.
func TestReplicationStreamOutlivesIdleTimeout(t *testing.T) {
	fs := wal.NewMemFS()
	mgr, _, err := nestedtx.OpenDurable("leader", nestedtx.DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	srv, leaderAddr := start(t, mgr, server.Config{IdleTimeout: 100 * time.Millisecond})
	mgr.MustRegister("ctr", nestedtx.Counter{})
	_, f, _ := startFollower(t, fs, "follower", leaderAddr)
	if err := mgr.Run(func(tx *nestedtx.Tx) error {
		_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "follower catch-up", func() bool { return caughtUpState(f, mgr, "ctr", 1) })

	before := srv.Counters()
	time.Sleep(2500 * time.Millisecond)
	after := srv.Counters()
	if after.TotalSessions != before.TotalSessions || after.ReapedSessions != 0 {
		t.Fatalf("quiet stream: sessions %d → %d, reaped %d; want no redial and none reaped",
			before.TotalSessions, after.TotalSessions, after.ReapedSessions)
	}
	if !f.Status().Connected {
		t.Fatal("follower disconnected from a quiet leader")
	}
}

// TestPromoteEndToEnd: drain a follower to zero lag, promote it over
// the wire, and commit on the new leader. The promotion re-verifies the
// inherited history (Recovery.Verify — Theorem 34 across the handoff).
func TestPromoteEndToEnd(t *testing.T) {
	fs := wal.NewMemFS()
	mgr, leaderSrv, leaderAddr := startLeader(t, fs, "leader")
	mgr.MustRegister("ctr", nestedtx.Counter{})
	fsrv, f, followerAddr := startFollower(t, fs, "follower", leaderAddr)

	for i := 0; i < 30; i++ {
		if err := mgr.Run(func(tx *nestedtx.Tx) error {
			_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			t.Fatalf("leader commit: %v", err)
		}
	}
	// Fence + drain: no new writes; the follower reaches the leader's
	// exact durable position, so promotion loses nothing.
	waitUntil(t, "drain to zero lag", func() bool { return caughtUp(f, mgr) })
	leaderNext, _ := mgr.WalStats()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := leaderSrv.Shutdown(ctx); err != nil {
		t.Fatalf("leader shutdown: %v", err)
	}

	fc := dial(t, followerAddr)
	if err := fc.Promote(); err != nil {
		t.Fatalf("PROMOTE: %v", err)
	}
	// Promoting a leader is refused.
	if err := fc.Promote(); err == nil {
		t.Fatal("second PROMOTE succeeded on a leader")
	}
	rm, err := fc.Metrics(false)
	if err != nil {
		t.Fatalf("Metrics after promote: %v", err)
	}
	rs := rm.ReplStatus
	if rs.Role != "leader" {
		t.Fatalf("promoted role = %q, want leader", rs.Role)
	}
	if rs.NextLSN != leaderNext.DurableLSN {
		t.Fatalf("promoted NextLSN %d != old leader durable %d", rs.NextLSN, leaderNext.DurableLSN)
	}

	// The promoted node accepts writes and serves the inherited history.
	if err := fc.Run(func(tx *client.Tx) error {
		_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 100})
		return err
	}); err != nil {
		t.Fatalf("commit on promoted leader: %v", err)
	}
	st, err := fc.State("ctr")
	if err != nil {
		t.Fatalf("State after promote: %v", err)
	}
	if st.(nestedtx.Counter).N != 130 {
		t.Fatalf("promoted ctr = %v, want 130", st)
	}
	// The promoted manager keeps the Theorem-34 guarantee for new
	// epochs too: its own WAL recovers and verifies.
	if err := fsrv.Manager().SyncWAL(); err != nil {
		t.Fatalf("SyncWAL: %v", err)
	}
	rec, err := wal.Inspect("follower", fs)
	if err != nil {
		t.Fatalf("Inspect promoted log: %v", err)
	}
	if err := (&nestedtx.Recovery{Recovery: rec}).Verify(); err != nil {
		t.Fatalf("promoted history fails Verify: %v", err)
	}
}

// TestControlledFailoverUnderChaos is the acceptance scenario: 16
// writers hammer the leader while the replication link is cut
// mid-stream by a faultnet partition and healed; then client traffic is
// fenced, the follower drains to zero lag, the leader dies, and the
// follower promotes. Every client-acked commit must be present on the
// promoted leader, its WAL must be exactly the leader's durable
// history (no unacked suffix invented, nothing lost), and the
// inherited history must pass Recovery.Verify.
func TestControlledFailoverUnderChaos(t *testing.T) {
	fs := wal.NewMemFS()
	mgr, leaderSrv, leaderAddr := startLeader(t, fs, "leader")
	mgr.MustRegister("ctr", nestedtx.Counter{})

	// The follower reaches the leader only through the fault proxy.
	proxy, err := faultnet.New(leaderAddr, faultnet.Faults{}, 42)
	if err != nil {
		t.Fatalf("faultnet: %v", err)
	}
	defer proxy.Close()
	_, f, followerAddr := startFollower(t, fs, "follower", proxy.Addr())

	// 16 writers, paced so the run straddles the partition window. The
	// history is kept modest because promotion re-verifies all of it
	// through the full S9 machine check, whose cost grows steeply with
	// the post-checkpoint record count.
	const writers, txsPerWriter = 16, 8
	var acked atomic.Int64
	pool, err := client.NewPool(leaderAddr, writers, client.WithTimeout(20*time.Second))
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	defer pool.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txsPerWriter; i++ {
				err := pool.RunRetry(8, func(tx *client.Tx) error {
					_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
					return err
				})
				if err == nil {
					acked.Add(1)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// Cut the replication link mid-stream (live connections are RST,
	// possibly mid-batch) while the writers keep committing, then heal:
	// the follower must reconnect and catch back up.
	time.Sleep(30 * time.Millisecond)
	proxy.Partition()
	time.Sleep(100 * time.Millisecond)
	proxy.Heal()
	wg.Wait()

	if got := acked.Load(); got != writers*txsPerWriter {
		t.Fatalf("only %d/%d commits acked (no client faults were injected)", got, writers*txsPerWriter)
	}
	if _, cut := proxy.Stats(); cut == 0 {
		t.Fatal("partition cut no replication connection; the chaos never bit")
	}

	// Fence: the writers are done, every ack delivered. Drain the
	// follower to the leader's exact durable position — the step that
	// makes failover lossless under asynchronous replication.
	waitUntil(t, "post-chaos drain to zero lag", func() bool { return caughtUp(f, mgr) })
	leaderStats, _ := mgr.WalStats()
	leaderStates := map[string]nestedtx.State{}
	if st, err := mgr.State("ctr"); err == nil {
		leaderStates["ctr"] = st
	}

	// The leader dies.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := leaderSrv.Shutdown(ctx); err != nil {
		t.Fatalf("leader shutdown: %v", err)
	}

	// Promote. Promote itself re-runs recovery and Recovery.Verify on
	// the inherited history — a promotion serving an uncertified state
	// is impossible by construction.
	fc := dial(t, followerAddr)
	if err := fc.Promote(); err != nil {
		t.Fatalf("PROMOTE after leader death: %v", err)
	}

	// Every acked commit is present: the counter equals the acked count.
	st, err := fc.State("ctr")
	if err != nil {
		t.Fatalf("State on promoted leader: %v", err)
	}
	if got := st.(nestedtx.Counter).N; got != acked.Load() {
		t.Fatalf("promoted ctr = %d, acked commits = %d", got, acked.Load())
	}
	// No unacked suffix, nothing lost: the promoted WAL is exactly the
	// leader's durable history.
	rec, err := wal.Inspect("follower", fs)
	if err != nil {
		t.Fatalf("Inspect promoted log: %v", err)
	}
	if rec.NextLSN != leaderStats.DurableLSN {
		t.Fatalf("promoted NextLSN %d != dead leader's durable %d", rec.NextLSN, leaderStats.DurableLSN)
	}
	if !reflect.DeepEqual(rec.States()["ctr"], leaderStates["ctr"]) {
		t.Fatalf("promoted states %v != dead leader's %v", rec.States()["ctr"], leaderStates["ctr"])
	}
	if err := (&nestedtx.Recovery{Recovery: rec}).Verify(); err != nil {
		t.Fatalf("inherited history fails Theorem-34 verification: %v", err)
	}

	// Life goes on: the promoted leader takes writes.
	if err := fc.Run(func(tx *client.Tx) error {
		_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
		return err
	}); err != nil {
		t.Fatalf("commit on promoted leader: %v", err)
	}
}

// TestFollowerRestartMidCatchUp: a follower dies partway through
// catching up on a large backlog (its stream stalled by the fault
// proxy), restarts, and resumes from its recovered position — ending
// byte-equivalent with the leader.
func TestFollowerRestartMidCatchUp(t *testing.T) {
	fs := wal.NewMemFS()
	mgr, _, leaderAddr := startLeader(t, fs, "leader")
	mgr.MustRegister("ctr", nestedtx.Counter{})
	// Big enough that catch-up takes several max-size batches (512
	// records each): the stall below fires after the second one, so the
	// follower restarts with a strict prefix of the backlog.
	const backlog = 1200
	for i := 0; i < backlog; i++ {
		if err := mgr.Run(func(tx *nestedtx.Tx) error {
			_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			t.Fatalf("backlog commit %d: %v", i, err)
		}
	}

	// The stream stalls after a few frames: the follower gets part of
	// the backlog, then silence.
	proxy, err := faultnet.New(leaderAddr, faultnet.Faults{
		StallAfterFrames: 3, StallFor: 30 * time.Second,
	}, 7)
	if err != nil {
		t.Fatalf("faultnet: %v", err)
	}
	defer proxy.Close()

	f, err := repl.OpenFollower("follower", wal.Options{FS: fs})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	go f.Run(proxy.Addr())
	// Wait for at least one applied batch, then kill the follower while
	// the stalled stream still holds most of the backlog.
	waitUntil(t, "partial catch-up", func() bool { return f.Status().NextLSN > 500 })
	if err := f.Close(); err != nil {
		t.Fatalf("close mid-catch-up: %v", err)
	}
	// Read the position only now, and the log's: a batch staged before
	// Close is flushed by it, and recovery rightly finds it, whether or
	// not the store had replayed it (Status's NextLSN counts only that).
	mid := f.Status().DurableLSN
	leaderStats, _ := mgr.WalStats()
	if mid >= leaderStats.DurableLSN {
		t.Fatalf("stall never bit: follower reached %d of %d before restart", mid, leaderStats.DurableLSN)
	}

	// Restart, direct to the leader this time.
	f2, err := repl.OpenFollower("follower", wal.Options{FS: fs})
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	defer f2.Close()
	if got := f2.Status().NextLSN; got != mid {
		t.Fatalf("recovered follower NextLSN %d, want the mid-catch-up position %d", got, mid)
	}
	go f2.Run(leaderAddr)
	waitUntil(t, "resumed catch-up", func() bool { return caughtUpState(f2, mgr, "ctr", backlog) })
	st, err := f2.State("ctr")
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	if st.(nestedtx.Counter).N != backlog {
		t.Fatalf("resumed follower ctr = %v, want %d", st, backlog)
	}
	// The full machine check is cubic in the record count, so on this
	// deliberately large backlog assert the linear invariants instead:
	// the resumed log is LSN-contiguous (no gap where the restart
	// spliced) and replays to the leader's exact state. Theorem-34
	// verification of replicated histories is covered by the promote
	// tests above.
	rec, err := wal.Inspect("follower", fs)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if rec.NextLSN != leaderStats.DurableLSN {
		t.Fatalf("resumed NextLSN %d != leader durable %d", rec.NextLSN, leaderStats.DurableLSN)
	}
	want := rec.CheckpointLSN
	for _, r := range rec.Records {
		if want != 0 && r.LSN != want {
			t.Fatalf("resumed log has a gap: LSN %d, want %d", r.LSN, want)
		}
		want = r.LSN + 1
	}
	lst, err := mgr.State("ctr")
	if err != nil {
		t.Fatalf("leader State: %v", err)
	}
	if !reflect.DeepEqual(rec.States()["ctr"], lst) {
		t.Fatalf("resumed states %v != leader %v", rec.States()["ctr"], lst)
	}
}

// TestReplicaPoolRoutingAndFailover drives the client-side view:
// State prefers the replica, and after the leader dies and the
// replica is promoted, writes chase the new leader automatically.
func TestReplicaPoolRoutingAndFailover(t *testing.T) {
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

	for i := 0; i < 10; i++ {
		if err := rp.Run(func(tx *client.Tx) error {
			_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			t.Fatalf("pool write %d: %v", i, err)
		}
	}
	waitUntil(t, "replica catch-up", func() bool { return caughtUpState(f, mgr, "ctr", 10) })

	before := fsrv.Counters().Requests
	st, err := rp.State("ctr")
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	if st.(nestedtx.Counter).N != 10 {
		t.Fatalf("State = %v, want 10", st)
	}
	if fsrv.Counters().Requests == before {
		t.Fatal("State did not touch the replica")
	}

	// Leader dies; operator promotes the replica; the pool's next write
	// fails over to it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := leaderSrv.Shutdown(ctx); err != nil {
		t.Fatalf("leader shutdown: %v", err)
	}
	if _, err := fsrv.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if err := rp.RunRetry(8, func(tx *client.Tx) error {
		_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 5})
		return err
	}); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if rp.Leader() != followerAddr {
		t.Fatalf("pool leader = %s, want the promoted %s", rp.Leader(), followerAddr)
	}
	if rp.Stats().Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", rp.Stats().Failovers)
	}
	st, err = rp.State("ctr")
	if err != nil {
		t.Fatalf("State after failover: %v", err)
	}
	if st.(nestedtx.Counter).N != 15 {
		t.Fatalf("state after failover = %v, want 15", st)
	}
}

// gateFS blocks ReadDir — the first thing recovery does to a data
// directory — while armed, so a test can hold a promotion inside its
// recovery for as long as it likes.
type gateFS struct {
	wal.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateFS) ReadDir(dir string) ([]string, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.FS.ReadDir(dir)
}

// TestReadsServedDuringPromotion: a promotion spends WAL recovery plus
// Recovery.Verify between claiming the follower and installing the
// manager. The replica's store is intact for all of it, so STATE,
// METRICS and read-only transactions must keep answering with the
// pre-promotion values; only locking verbs wait. Before the server had
// one read-side accessor each of the three went dark in that window.
func TestReadsServedDuringPromotion(t *testing.T) {
	gate := &gateFS{FS: wal.NewMemFS(), entered: make(chan struct{}), release: make(chan struct{})}
	mgr, _, leaderAddr := startLeader(t, wal.NewMemFS(), "leader")
	mgr.MustRegister("ctr", nestedtx.Counter{})
	fsrv, f, followerAddr := startFollower(t, gate, "follower", leaderAddr)
	for i := 0; i < 7; i++ {
		if err := mgr.Run(func(tx *nestedtx.Tx) error {
			_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			t.Fatalf("leader commit: %v", err)
		}
	}
	waitUntil(t, "follower caught up", func() bool { return caughtUpState(f, mgr, "ctr", 7) })

	// The gated FS reaches OpenDurable through Follower.WalOptions().
	gate.armed.Store(true)
	promoted := make(chan error, 1)
	go func() {
		_, err := fsrv.Promote()
		promoted <- err
	}()
	<-gate.entered // recovery is parked on its first read

	c := dial(t, followerAddr)
	st, err := c.State("ctr")
	if err != nil || st.(nestedtx.Counter).N != 7 {
		t.Errorf("STATE during promotion = %v, %v; want 7", st, err)
	}
	if met, err := c.Metrics(false); err != nil {
		t.Errorf("METRICS during promotion: %v", err)
	} else if met.SnapPublishes != 7 {
		t.Errorf("METRICS during promotion: %d publications, want the replica's 7", met.SnapPublishes)
	}
	if err := c.RunReadOnly(func(s *client.Snapshot) error {
		v, err := s.Read("ctr", nestedtx.CtrGet{})
		if err == nil && v.(int64) != 7 {
			err = fmt.Errorf("read %v, want 7", v)
		}
		return err
	}); err != nil {
		t.Errorf("BEGIN read_only + READ during promotion: %v", err)
	}
	if _, err := c.Begin(); !errors.Is(err, client.ErrReadOnly) {
		t.Errorf("BEGIN during promotion: err = %v, want ErrReadOnly", err)
	}
	if _, err := fsrv.Promote(); err == nil {
		t.Error("a second Promote was accepted while the first is in flight")
	}

	close(gate.release)
	if err := <-promoted; err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if err := c.Run(func(tx *client.Tx) error {
		_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
		return err
	}); err != nil {
		t.Fatalf("commit on the promoted leader: %v", err)
	}
	if st, err := c.State("ctr"); err != nil || st.(nestedtx.Counter).N != 8 {
		t.Fatalf("STATE after promotion = %v, %v; want 8", st, err)
	}
}

// TestPromotingALatchedFollowerIsRefused: a crash under a follower's own
// directory latches its log and ends Follower.Run with the fault. A
// promotion of that follower is refused, every time, with an error
// wrapping the fault: closing the replica's log returns it, and recovery
// could not read the dead device anyway. The node stays a read replica,
// and METRICS still reports it as one.
func TestPromotingALatchedFollowerIsRefused(t *testing.T) {
	fs := wal.NewMemFS()
	mgr, _, leaderAddr := startLeader(t, fs, "leader")
	mgr.MustRegister("ctr", nestedtx.Counter{})
	device := wal.NewFaultFS(fs)
	f, err := repl.OpenFollower("follower", wal.Options{FS: device})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	fsrv, followerAddr := start(t, nil, server.Config{Follower: f})
	ran := make(chan error, 1)
	go func() { ran <- f.Run(leaderAddr) }()
	commit := func() error {
		return mgr.Run(func(tx *nestedtx.Tx) error {
			_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
			return err
		})
	}
	for i := 0; i < 3; i++ {
		if err := commit(); err != nil {
			t.Fatalf("leader commit: %v", err)
		}
	}
	waitUntil(t, "follower caught up", func() bool { return caughtUpState(f, mgr, "ctr", 3) })

	device.CrashAfter(0)
	var runErr error
	for runErr == nil {
		if err := commit(); err != nil {
			t.Fatalf("leader commit: %v", err)
		}
		select {
		case runErr = <-ran:
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !errors.Is(runErr, wal.ErrInjected) {
		t.Fatalf("Follower.Run = %v, want the fault %v", runErr, wal.ErrInjected)
	}
	for i := 1; i <= 2; i++ {
		_, err := fsrv.Promote()
		if !errors.Is(err, wal.ErrInjected) {
			t.Fatalf("Promote #%d = %v, want a refusal wrapping %v", i, err, wal.ErrInjected)
		}
		t.Logf("Promote #%d: %v", i, err)
	}
	c := dial(t, followerAddr)
	met, err := c.Metrics(false)
	if err != nil {
		t.Fatalf("METRICS after the refused promotions: %v", err)
	}
	if met.ReplStatus == nil || met.ReplStatus.Role != "follower" {
		t.Fatalf("METRICS repl_status = %+v, want role follower", met.ReplStatus)
	}
	if _, err := c.Begin(); !errors.Is(err, client.ErrReadOnly) {
		t.Errorf("BEGIN on the refused follower: err = %v, want ErrReadOnly", err)
	}
}

package dst

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/adt"
	"nestedtx/internal/faultnet"
	"nestedtx/internal/repl"
	"nestedtx/internal/server"
	"nestedtx/internal/wal"
)

// runNet is the replicated environment: a durable leader served over
// TCP, a follower streaming the leader's WAL through a faultnet proxy,
// a client pool driving the planned workload, partitions on the
// replication link at planned virtual times, then leader death,
// bit rot (when planned), verified promotion, the pool's failover to
// the promoted node and a post-promotion phase against it.
//
// Injected latency, the WAL's batch-gather deadline and the follower's
// reconnect backoff run on the virtual clock. The server's watchdog
// request timers stay on the wall clock (a watchdog firing because
// simulated time jumped would inject timeouts the plan never asked
// for), and so do the client's retry backoff (RunRetry's sleep between
// attempts) and the pool's redial backoff.
func runNet(env *simEnv, plan *Plan, faults *faultPlan, res *Result) error {
	scn := env.scn
	mem := wal.NewMemFS()

	// Leader: durable manager + server (the server attaches a shipper to
	// any durable manager).
	mgr, _, err := nestedtx.OpenDurable("leader", nestedtx.DurableOptions{
		FS:           mem,
		SegmentBytes: faults.SegmentBytes,
		Clock:        env.clk,
	}, nestedtx.WithClock(env.clk))
	if err != nil {
		return fmt.Errorf("dst: open leader: %w", err)
	}
	if err := mgr.Register("ctr", adt.Counter{}); err != nil {
		return fmt.Errorf("dst: register ctr: %w", err)
	}
	if err := registerUniverse(mgr, scn); err != nil {
		return fmt.Errorf("dst: register: %w", err)
	}
	leaderSrv := server.New(mgr, server.Config{})
	leaderLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("dst: listen: %w", err)
	}
	go leaderSrv.Serve(leaderLn)
	leaderAddr := leaderLn.Addr().String()

	// Replication link through the fault proxy: partitions planned at
	// virtual times sever it; the follower's reconnect backoff parks on
	// the virtual clock too.
	proxy, err := faultnet.NewWithClock(leaderAddr, faultnet.Faults{
		Latency: scn.NetLatency,
		Jitter:  scn.NetJitter,
	}, faults.NetSeed, env.clk)
	if err != nil {
		return fmt.Errorf("dst: proxy: %w", err)
	}
	defer proxy.Close()

	f, err := repl.OpenFollower("follower", wal.Options{FS: mem, Clock: env.clk})
	if err != nil {
		return fmt.Errorf("dst: open follower: %w", err)
	}
	fsrv := server.New(nil, server.Config{Follower: f})
	fLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("dst: follower listen: %w", err)
	}
	go fsrv.Serve(fLn)
	go f.Run(proxy.Addr())
	followerAddr := fLn.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = fsrv.Shutdown(ctx)
	}()

	wait := driveFaults(env, faults, faultActions{
		Checkpoint: func() { _ = mgr.Checkpoint() },
		Partition:  proxy.Partition,
		Heal:       proxy.Heal,
	})

	// One pool for both phases: it fails over to the follower once the
	// follower is promoted.
	pool, err := client.NewReplicaPool(leaderAddr, []string{followerAddr}, scn.Workers, client.WithTimeout(20*time.Second))
	if err != nil {
		return fmt.Errorf("dst: pool: %w", err)
	}
	defer pool.Close()
	st, werr := runNetSpecs(env, pool, plan.Specs)
	res.Stats = st
	wait()
	proxy.Heal() // the driver always ran the full schedule; make sure we end healed
	if werr != nil {
		return werr
	}

	// Drain: the follower must catch up to the leader's durable log.
	if err := waitFor(30*time.Second, func() bool {
		ws, ok := mgr.WalStats()
		return ok && f.Status().NextLSN == ws.DurableLSN
	}); err != nil {
		return fmt.Errorf("dst: follower never caught up: %w", err)
	}
	leaderCtr, err := counterState(mgr.State("ctr"))
	if err != nil {
		return err
	}
	if leaderCtr < st.Writes {
		return fmt.Errorf("dst: leader lost commits: ctr %d < %d acknowledged", leaderCtr, st.Writes)
	}
	if err := waitFor(15*time.Second, func() bool {
		fs, err := f.State("ctr")
		return err == nil && fs.(adt.Counter).N == leaderCtr
	}); err != nil {
		return fmt.Errorf("dst: follower state never converged to ctr=%d: %w", leaderCtr, err)
	}

	// Leader dies (its durable log is the artifact it leaves behind).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = leaderSrv.Shutdown(ctx)
	cancel()
	if err != nil {
		return fmt.Errorf("dst: leader shutdown: %w", err)
	}

	// Planned disk rot on the replica's own log, then promotion —
	// which re-runs recovery and Recovery.Verify on the (possibly
	// truncated) surviving prefix before serving writes.
	if scn.BitRot {
		applyBitRot(mem, "follower", faults)
	}
	fc, err := client.Dial(followerAddr, client.WithTimeout(20*time.Second))
	if err != nil {
		return fmt.Errorf("dst: dial follower: %w", err)
	}
	if err := fc.Promote(); err != nil {
		fc.Close()
		return fmt.Errorf("dst: promote: %w", err)
	}
	promoted, err := fc.State("ctr")
	fc.Close()
	if ferr := pool.Failover(); ferr != nil || pool.Leader() != followerAddr {
		return fmt.Errorf("dst: pool failover: leader %s, want %s: %v", pool.Leader(), followerAddr, ferr)
	}
	switch {
	case err != nil && scn.BitRot:
		// Rot can truncate arbitrarily far back, even past ctr's
		// registration; the promotion verdict above already proved the
		// surviving prefix. Nothing further to drive.
	case err != nil:
		return fmt.Errorf("dst: promoted state: %w", err)
	case !scn.BitRot && promoted.(nestedtx.Counter).N != leaderCtr:
		return fmt.Errorf("dst: promoted ctr %d != leader ctr %d", promoted.(nestedtx.Counter).N, leaderCtr)
	case scn.BitRot && promoted.(nestedtx.Counter).N > leaderCtr:
		return fmt.Errorf("dst: promoted ctr %d exceeds leader ctr %d", promoted.(nestedtx.Counter).N, leaderCtr)
	default:
		// Post-promotion phase: the planned post specs run against the
		// new leader.
		post, perr := runNetSpecs(env, pool, plan.Post)
		res.Post = post
		if perr != nil {
			return perr
		}
		if !scn.BitRot && len(plan.Post) > 0 && post.Committed+post.Scans == 0 {
			return fmt.Errorf("dst: promoted leader accepted none of %d post transactions", len(plan.Post))
		}
	}

	// Final verdict on the promoted node's log: shut its server down and
	// machine-check the full inherited-plus-new history from the bytes.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	err = fsrv.Shutdown(ctx2)
	cancel2()
	if err != nil {
		return fmt.Errorf("dst: promoted shutdown: %w", err)
	}
	rec, err := wal.Inspect("follower", mem)
	if err != nil {
		return fmt.Errorf("dst: inspect promoted log: %w", err)
	}
	if err := (&nestedtx.Recovery{Recovery: rec}).Verify(); err != nil {
		return fmt.Errorf("dst: promoted history rejected: %w", err)
	}
	return nil
}

func counterState(st nestedtx.State, err error) (int64, error) {
	if err != nil {
		return 0, fmt.Errorf("dst: leader state: %w", err)
	}
	return st.(adt.Counter).N, nil
}

// runNetSpecs drives planned specs through a client pool. Write specs
// bump the shared counter (the acked set the failover assertions track)
// and touch planned objects, optionally one subtransaction deep; scan
// specs run remote read-only snapshots.
func runNetSpecs(env *simEnv, pool *client.Pool, specs []TxSpec) (execStats, error) {
	var st execStats
	err := runPool(env, specs, func(spec TxSpec) error { runNetSpec(env, pool, spec, &st); return nil },
		func(spec TxSpec) time.Duration { return time.Duration(spec.Seed % int64(env.scn.ThinkMax)) })
	return st, err
}

func runNetSpec(env *simEnv, pool *client.Pool, spec TxSpec, st *execStats) {
	rng := newSpecRNG(spec.Seed)
	scn := env.scn
	if spec.Kind == KScan {
		err := pool.RunReadOnly(func(s *client.Snapshot) error {
			if _, err := s.Read("ctr", adt.CtrGet{}); err != nil {
				return err
			}
			for i := 0; i < spec.Ops; i++ {
				if _, err := s.Read(objName(rng.Intn(max(1, scn.Objects))), adt.CtrGet{}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			atomic.AddInt64(&st.Aborted, 1)
			return
		}
		atomic.AddInt64(&st.Scans, 1)
		return
	}
	pick := objectPicker(rng, scn, spec)
	err := pool.RunRetry(scn.Retries, func(t *client.Tx) error {
		if _, err := t.Write("ctr", adt.CtrAdd{Delta: 1}); err != nil {
			return err
		}
		for i := 0; i < min(spec.Ops, 2); i++ {
			if _, err := t.Write(pick(), adt.CtrAdd{Delta: 1}); err != nil {
				return err
			}
		}
		if spec.Depth > 1 {
			if err := t.Sub(func(s *client.Tx) error {
				_, err := s.Read(pick(), adt.CtrGet{})
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
	env.countOutcome(st, err, true)
}

// waitFor polls cond on the wall clock — the verification drain is not
// part of the simulated history.
func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %s", limit)
}

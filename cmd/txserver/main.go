// Command txserver serves a nestedtx transaction universe over TCP,
// speaking the internal/wire protocol (see package client for the Go
// client and the README's "Server" section for the frame format).
//
// Usage:
//
//	txserver [-addr :7654] [-objects spec] [-max-conns N]
//	         [-idle-timeout D] [-req-timeout D] [-exclusive] [-record]
//	         [-trace N] [-metrics-every D] [-pprof addr] [-duration D]
//	         [-data-dir dir] [-follow leader:port]
//
// With -data-dir the server is durable: every top-level commit is
// write-ahead logged and fsynced (concurrent commits share an fsync)
// before its reply goes out, the directory's previous contents are
// recovered on boot (torn tail truncated, recovery summary logged, the
// recovered history machine-checked), and a graceful drain flushes and
// closes the log. Objects recovered from the log keep their state;
// -objects only adds ones the log does not know.
//
// With -follow the server is a read replica instead: -data-dir (still
// required) is kept in sync by streaming the leader's WAL over the wire
// protocol (REPL_HELLO catch-up negotiation, checksummed REPL_BATCH
// frames, snapshot bootstrap when the leader has checkpointed past this
// replica). The replica serves committed-to-root reads (STATE), reports
// its position and lag (the repl_status block of METRICS), and refuses
// every transaction verb with the read_only wire error. Replication stops
// for good, and is logged, if replay diverges from the leader's history
// or the replica's own log fails. Sending the process SIGUSR1 — or the
// PROMOTE wire verb — promotes it: replication stops, the inherited
// directory is recovered and the whole history re-verified with the
// full machine check (Theorem 34 across the failover), and only then
// does the server start accepting writes as a new leader, itself
// shippable to further replicas. A durable leader needs no flag to
// serve replicas: any durable txserver accepts REPL_HELLO.
//
// Observability: metrics (the server's and the lock manager's counters,
// latency histograms, outcome counters, contention gauges, and the
// replication position on a node that replicates) are always on and
// served to clients via the METRICS wire verb. -trace N additionally keeps a ring of the last N
// lifecycle/lock events, dumpable remotely (METRICS with dump) or by
// sending the process SIGQUIT, which logs the ring without stopping the
// server. -metrics-every D logs a one-line metrics summary every D;
// -pprof addr serves net/http/pprof on a side listener.
//
// The -objects flag declares the shared universe as comma-separated
// name=kind pairs, where kind is one of counter, register, account, set,
// queue, table (e.g. "checking=account,savings=account,audit=queue").
//
// With -record the manager records the formal event schedule of the
// whole run; on drain (SIGINT/SIGTERM or -duration elapsing) the server
// machine-checks it with Manager.Verify — well-formedness, replay on the
// formal M(X) automata, and serial correctness per Theorem 34 — so the
// paper's guarantee stays checkable against real network executions. A
// replica promoted under -record records and verifies its own epoch the
// same way. Recording grows memory with history size, so it is meant for
// bounded validation runs rather than long-lived production service.
//
// Fault injection lives outside this binary: cmd/txdst drives a served,
// durable, replicated universe through seeded connection cuts,
// partitions, crashes and promotions and machine-checks the outcome (see
// the README's "Server" section for the scenario names).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nestedtx"
	"nestedtx/internal/obs"
	"nestedtx/internal/repl"
	"nestedtx/internal/server"
	"nestedtx/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":7654", "listen address")
		objects     = flag.String("objects", "counter=counter", "objects to register: comma-separated name=kind (counter, register, account, set, queue, table)")
		maxConns    = flag.Int("max-conns", 1024, "max concurrent sessions (0 = unlimited)")
		idleTimeout = flag.Duration("idle-timeout", 5*time.Minute, "tear down a session idle, or stuck writing a reply, this long (0 = never)")
		reqTimeout  = flag.Duration("req-timeout", 10*time.Second, "per-request deadline; a blocked access past it aborts its transaction")
		exclusive   = flag.Bool("exclusive", false, "exclusive-locking mode: treat every access as a write (the paper's [LM] baseline)")
		record      = flag.Bool("record", false, "record the formal schedule and Verify it on drain (Theorem 34 check)")
		duration    = flag.Duration("duration", 0, "serve this long, then drain (0 = until SIGINT/SIGTERM)")
		traceCap    = flag.Int("trace", 0, "keep a ring of the last N lifecycle/lock trace events, dumpable via METRICS dump or SIGQUIT (0 = off)")
		metricsLog  = flag.Duration("metrics-every", 0, "log a one-line metrics summary this often (0 = never)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
		dataDir     = flag.String("data-dir", "", "write-ahead log directory: commits are durable and the directory is recovered on boot (empty = in-memory only)")
		follow      = flag.String("follow", "", "run as a read replica of this leader address (needs -data-dir); SIGUSR1 or the PROMOTE verb promotes")
	)
	flag.Parse()

	var opts []nestedtx.Option
	if *record {
		opts = append(opts, nestedtx.WithRecording())
	}
	if *exclusive {
		opts = append(opts, nestedtx.WithExclusiveLocking())
	}
	if *traceCap > 0 {
		opts = append(opts, nestedtx.WithTracing(*traceCap))
	}
	cfg := server.Config{
		MaxConns:       *maxConns,
		IdleTimeout:    *idleTimeout,
		RequestTimeout: *reqTimeout,
	}

	var srv *server.Server
	switch {
	case *follow != "":
		if *dataDir == "" {
			log.Fatalf("txserver: -follow needs -data-dir (the replica keeps its own WAL)")
		}
		srv = newFollower(*follow, *dataDir, opts, cfg)
	case *dataDir != "":
		mgr, rec, err := nestedtx.OpenDurable(*dataDir, nestedtx.DurableOptions{}, opts...)
		if err != nil {
			log.Fatalf("txserver: open %s: %v", *dataDir, err)
		}
		log.Printf("txserver: recovered %s: %d objects, %d records past checkpoint (lsn %d), next lsn %d, torn bytes cut %d, dropped %v",
			*dataDir, len(rec.States()), len(rec.Records), rec.CheckpointLSN, rec.NextLSN, rec.TornBytes, rec.Dropped)
		if err := rec.Verify(); err != nil {
			log.Fatalf("txserver: recovered history failed verification: %v", err)
		}
		srv = newLeader(mgr, *objects, cfg)
	default:
		srv = newLeader(nestedtx.NewManager(opts...), *objects, cfg)
	}

	log.Printf("txserver: serving on %s (record=%v exclusive=%v max-conns=%d trace=%d)",
		*addr, *record, *exclusive, *maxConns, *traceCap)
	if err := serve(srv, *addr, *pprofAddr, *metricsLog, *duration); err != nil {
		log.Fatalf("txserver: %v", err)
	}
}

// newLeader registers the -objects universe on mgr and wraps it in a
// server. Register only stages its log record, so a durable manager is
// synced first: a server that says it is serving has durable objects.
func newLeader(mgr *nestedtx.Manager, objects string, cfg server.Config) *server.Server {
	if err := registerObjects(mgr, objects); err != nil {
		log.Fatalf("txserver: %v", err)
	}
	if err := mgr.SyncWAL(); err != nil {
		log.Fatalf("txserver: sync registrations: %v", err)
	}
	return server.New(mgr, cfg)
}

// newFollower is the -follow mode: the data dir is kept in sync with the
// leader's WAL over the wire, the server serves committed reads and
// refuses transaction verbs, and SIGUSR1 (or the PROMOTE verb from any
// client) promotes — recovery, full re-verification, then writes.
func newFollower(leader, dataDir string, promoteOpts []nestedtx.Option, cfg server.Config) *server.Server {
	f, err := repl.OpenFollower(dataDir, wal.Options{})
	if err != nil {
		log.Fatalf("txserver: open replica %s: %v", dataDir, err)
	}
	log.Printf("txserver: read-only replica of %s: recovered %s to lsn %d; SIGUSR1 (or PROMOTE) promotes",
		leader, dataDir, f.Status().NextLSN)
	cfg.Follower = f
	cfg.PromoteOptions = promoteOpts
	srv := server.New(nil, cfg)
	go func() {
		if err := f.Run(leader); err != nil {
			log.Printf("txserver: replication stopped: %v", err)
		}
	}()
	usr := make(chan os.Signal, 1)
	signal.Notify(usr, syscall.SIGUSR1)
	go func() {
		for range usr {
			rec, err := srv.Promote()
			if err != nil {
				log.Printf("txserver: promote: %v", err)
				continue
			}
			log.Printf("txserver: PROMOTED: %d objects, %d records re-verified (Theorem 34 across failover); accepting writes, shipping to replicas",
				len(rec.States()), len(rec.Records))
		}
	}()
	return srv
}

// serve listens on addr, runs the side channels (pprof, the metrics
// ticker, the SIGQUIT dump), waits for a stop signal or -duration, and
// drains. Leader, replica and promoted replica all come through here:
// everything below asks srv what is live *now* (srv.Follower() until a
// promotion, srv.Manager() after), so a role change mid-run needs no
// second code path.
func serve(srv *server.Server, addr, pprofAddr string, metricsEvery, duration time.Duration) error {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(addr) }()
	if pprofAddr != "" {
		go func() {
			log.Printf("txserver: pprof on http://%s/debug/pprof/", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				log.Printf("txserver: pprof: %v", err)
			}
		}()
	}
	if metricsEvery > 0 {
		go func() {
			tick := time.NewTicker(metricsEvery)
			defer tick.Stop()
			for range tick.C {
				logLive(srv)
			}
		}()
	}
	// SIGQUIT dumps the trace ring (and a metrics line) without stopping
	// the server — the classic "what is it doing right now" probe.
	quitSig := make(chan os.Signal, 1)
	signal.Notify(quitSig, syscall.SIGQUIT)
	go func() {
		for range quitSig {
			logLive(srv)
			dumpTrace(srv.Metrics())
		}
	}()

	var timeout <-chan time.Time // nil (never fires) without -duration
	if duration > 0 {
		timeout = time.After(duration)
	}
	select {
	case <-stop:
	case <-timeout:
	case err := <-done:
		return fmt.Errorf("serve: %w", err)
	}
	log.Printf("txserver: draining...")
	return drain(srv)
}

// drain shuts srv down and closes out whatever is live: a replica's log
// was closed by Shutdown itself; a manager — a leader's, or the one a
// promotion installed — has its schedule machine-checked if it was
// recording, and its WAL closed if it is durable.
func drain(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	m := srv.Manager()
	var lk nestedtx.Stats
	if m != nil {
		lk = m.Stats()
	}
	c := srv.Counters()
	log.Printf("txserver: drained: sessions=%d requests=%d commits=%d aborts=%d deadlock-victims=%d reaped=%d rejected=%d lock-waits=%d",
		c.TotalSessions, c.Requests, c.Commits, c.Aborts, c.DeadlockVictims,
		c.ReapedSessions, c.RejectedConns, lk.Waits)
	if m == nil {
		if f := srv.Follower(); f != nil {
			log.Printf("txserver: replica drained at lsn %d", f.Status().NextLSN)
		}
		return nil
	}
	// A recording manager's schedule is never empty: T0's CREATE is
	// recorded at construction.
	if n := len(m.Schedule()); n > 0 {
		log.Printf("txserver: verifying recorded schedule (%d events)...", n)
		if err := m.Verify(); err != nil {
			return fmt.Errorf("VERIFY FAILED: %w", err)
		}
		log.Printf("txserver: schedule verified: well-formed, replays on M(X), serially correct (Theorem 34)")
	}
	if ws, ok := m.WalStats(); ok {
		log.Printf("txserver: wal: next lsn %d, checkpoint lsn %d, active segment %s (%d bytes)",
			ws.NextLSN, ws.CheckpointLSN, ws.Segment, ws.SegmentBytes)
	}
	if err := m.CloseWAL(); err != nil {
		return fmt.Errorf("close wal: %w", err)
	}
	return nil
}

// logLive logs the live metrics line, plus the replication position
// while the server is a replica.
func logLive(srv *server.Server) {
	logMetrics(srv.Metrics())
	if f := srv.Follower(); f != nil {
		st := f.Status()
		log.Printf("txserver: replica: leader=%s connected=%v lsn=%d lag=%d records %.3fs",
			st.Leader, st.Connected, st.NextLSN, st.LagRecords, st.LagSeconds)
	}
}

// logMetrics prints a one-line latency/outcome summary of the live
// metric set.
func logMetrics(met *obs.Metrics) {
	s := met.Snapshot()
	log.Printf("txserver: metrics: tx p50=%v p99=%v max=%v commits=%d aborts=%d | op p50=%v p99=%v | lock-wait n=%d p99=%v victims=%d(deadlock=%d cancelled=%d) | queued=%d contended=%d",
		s.TxLatency.Quantile(50), s.TxLatency.Quantile(99), s.TxLatency.Max,
		s.TxCommits, s.TxAborts,
		s.OpLatency.Quantile(50), s.OpLatency.Quantile(99),
		s.LockWait.Count, s.LockWait.Quantile(99),
		s.Victims, s.VictimsDeadlock, s.VictimsCancelled,
		s.QueuedWaiters, s.ContendedObjects)
}

// dumpTrace logs the retained trace ring oldest-first (no-op without
// -trace).
func dumpTrace(met *obs.Metrics) {
	entries := met.Tracer.Dump()
	if len(entries) == 0 {
		log.Printf("txserver: trace: empty (run with -trace N to enable)")
		return
	}
	log.Printf("txserver: trace: %d retained of %d total", len(entries), entries[len(entries)-1].Seq)
	for _, e := range entries {
		log.Print("  " + e.String())
	}
}

// registerObjects parses "name=kind,..." and registers each object.
func registerObjects(m *nestedtx.Manager, spec string) error {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	for _, pair := range strings.Split(spec, ",") {
		name, kind, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return fmt.Errorf("bad object spec %q (want name=kind)", pair)
		}
		var st nestedtx.State
		switch kind {
		case "counter":
			st = nestedtx.Counter{}
		case "register":
			st = nestedtx.NewRegister(nil)
		case "account":
			st = nestedtx.Account{}
		case "set":
			st = nestedtx.NewIntSet()
		case "queue":
			st = nestedtx.NewQueue()
		case "table":
			st = nestedtx.NewTable(nil)
		default:
			return fmt.Errorf("unknown object kind %q for %q", kind, name)
		}
		if _, err := m.State(name); err == nil {
			continue // recovered from the data dir: the log's state wins
		}
		if err := m.Register(name, st); err != nil {
			return err
		}
	}
	return nil
}

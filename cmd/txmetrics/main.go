// Command txmetrics is the operator's window into a running txserver:
// it dials the server, issues the METRICS verb, and prints the answer
// either as a human-readable summary or as the JSON payload itself (for
// scripts — the metrics-smoke CI check parses this output).
//
// Usage:
//
//	txmetrics [-addr host:port] [-json] [-dump] [-exercise N] [-obj name]
//
// -dump asks the server to include its trace ring in the METRICS
// response (the server must be running with -trace N for the ring to
// hold anything). In human mode the ring is printed oldest-first, one
// event per line.
//
// -exercise N drives N small committed transactions against -obj (a
// counter object, "counter" by default — the txserver default universe)
// before reading the metrics, so a freshly started server has data in
// every histogram. The metrics-smoke CI check uses this to probe a live
// server end to end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("txmetrics: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:7654", "txserver address")
		asJSON   = flag.Bool("json", false, "emit the METRICS payload as JSON instead of a summary")
		dump     = flag.Bool("dump", false, "include the server's trace ring in the METRICS response")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-call I/O timeout")
		exercise = flag.Int("exercise", 0, "run this many small committed transactions against -obj before reading metrics")
		obj      = flag.String("obj", "counter", "counter object the -exercise workload increments")
	)
	flag.Parse()

	c, err := client.Dial(*addr, client.WithTimeout(*timeout))
	if err != nil {
		log.Fatalf("dial %s: %v", *addr, err)
	}
	defer c.Close()

	for i := 0; i < *exercise; i++ {
		err := c.RunRetry(20, func(tx *client.Tx) error {
			_, err := tx.Write(*obj, nestedtx.CtrAdd{Delta: 1})
			return err
		})
		if err != nil {
			log.Fatalf("exercise tx %d: %v", i, err)
		}
	}

	met, err := c.Metrics(*dump)
	if err != nil {
		log.Fatalf("METRICS: %v", err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(met); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("server %s\n", *addr)
	fmt.Printf("  transactions   begun=%d committed=%d aborted=%d (metrics: commits=%d aborts=%d)\n",
		met.TxBegun, met.Commits, met.Aborts, met.TxCommits, met.TxAborts)
	fmt.Printf("  sessions       active=%d total=%d reaped=%d rejected=%d requests=%d\n",
		met.ActiveSessions, met.TotalSessions, met.ReapedSessions,
		met.RejectedConns, met.Requests)
	fmt.Printf("  locks          acquires=%d waits=%d deadlocks=%d wakeups=%d\n",
		met.Acquires, met.Waits, met.Deadlocks, met.Wakeups)
	fmt.Printf("  victims        total=%d deadlock=%d cancelled=%d\n",
		met.Victims, met.VictimsDeadlock, met.VictimsCancelled)
	fmt.Printf("  gauges         queued-waiters=%d contended-objects=%d\n",
		met.QueuedWaiters, met.ContendedObjects)
	printHist("op latency", met.OpLatency)
	printHist("tx latency", met.TxLatency)
	printHist("lock wait", met.LockWait)
	if met.WalAppends > 0 {
		fmt.Printf("  wal            appends=%d fsyncs=%d (%.3f fsyncs/commit) max-batch=%d checkpoints=%d checkpoint-lsn=%d\n",
			met.WalAppends, met.WalFsyncs,
			float64(met.WalFsyncs)/float64(met.WalAppends),
			met.WalMaxBatch, met.WalCheckpoints, met.WalCheckpointLSN)
		printHist("fsync latency", met.FsyncLatency)
	}
	if rs := met.ReplStatus; rs != nil {
		switch rs.Role {
		case "leader":
			fmt.Printf("  repl           role=leader next-lsn=%d durable-lsn=%d followers=%d\n",
				rs.NextLSN, rs.DurableLSN, len(rs.Followers))
			for _, fo := range rs.Followers {
				fmt.Printf("    follower     %s ack-lsn=%d lag=%d records %.3fs\n",
					fo.Remote, fo.AckLSN, fo.LagRecords, fo.LagSeconds)
			}
		case "follower":
			fmt.Printf("  repl           role=follower leader=%s connected=%v next-lsn=%d lag=%d records %.3fs\n",
				rs.Leader, rs.Connected, rs.NextLSN, rs.LagRecords, rs.LagSeconds)
		}
	}
	if met.ReplBatches > 0 || met.ReplBatchesApplied > 0 {
		fmt.Printf("  repl metrics   shipped: batches=%d records=%d acks=%d | applied: batches=%d records=%d | followers=%d lag=%d records %.3fs\n",
			met.ReplBatches, met.ReplRecordsShipped, met.ReplAcks,
			met.ReplBatchesApplied, met.ReplRecordsApplied,
			met.ReplFollowers, met.ReplLagRecords, met.ReplLag)
		printHist("ship latency", met.ShipLatency)
	}
	if met.SnapTxs > 0 || met.SnapPublishes > 0 {
		fmt.Printf("  snapshots      txs=%d reads=%d publishes=%d pinned=%d\n",
			met.SnapTxs, met.SnapReads, met.SnapPublishes, met.SnapPinned)
		printHist("snap read", met.SnapReadLatency)
	}

	if *dump {
		if len(met.Trace) == 0 {
			fmt.Println("  trace          empty (server needs -trace N)")
			return
		}
		fmt.Printf("  trace          %d entries (%d evicted before dump)\n",
			len(met.Trace), met.TraceDropped)
		for _, e := range met.Trace {
			fmt.Println("    " + e.String())
		}
	}
}

func printHist(name string, h obs.HistSnapshot) {
	fmt.Printf("  %-14s n=%d p50=%s p90=%s p99=%s max=%s\n", name, h.Count,
		h.Quantile(50), h.Quantile(90), h.Quantile(99), h.Max)
}

// Benchmark harness: one bench per experiment in EXPERIMENTS.md (E1–E8),
// plus micro-benchmarks of the hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// The E-benchmarks report domain metrics (tx/s, events/op) alongside the
// standard ns/op, so the EXPERIMENTS.md tables can be regenerated from
// their output; cmd/txsim and cmd/txverify print the same data as tables.
package nestedtx_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx"

	"nestedtx/internal/adt"
	"nestedtx/internal/checker"
	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/object"
	"nestedtx/internal/sim"
	"nestedtx/internal/system"
	"nestedtx/internal/tree"
	"nestedtx/internal/wal"
)

// genCfg is the standard random-system shape used by the formal-model
// benchmarks.
var genCfg = system.GenConfig{
	Objects: 3, TopLevel: 3, MaxDepth: 2, MaxFanout: 3,
	ReadFraction: 0.5, SubProb: 0.5, SeqProb: 0.5,
}

// BenchmarkE1SerialCorrectnessCheck measures the full E1 pipeline: drive a
// random R/W Locking system to a concurrent schedule and machine-check
// Theorem 34 at every non-orphan transaction.
func BenchmarkE1SerialCorrectnessCheck(b *testing.B) {
	var events int
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		rng := rand.New(rand.NewSource(seed))
		sys, err := system.Generate(rng, genCfg)
		if err != nil {
			b.Fatal(err)
		}
		sched, err := sys.RunConcurrent(system.DriverConfig{Seed: seed, AbortProb: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		if err := checker.CheckAll(sched, sys.SystemType()); err != nil {
			b.Fatal(err)
		}
		events += len(sched)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkE2ExclusiveDegeneration is E1 with every access treated as a
// write: the degenerated (exclusive-locking) system must verify equally.
func BenchmarkE2ExclusiveDegeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		rng := rand.New(rand.NewSource(seed))
		sys, err := system.Generate(rng, genCfg)
		if err != nil {
			b.Fatal(err)
		}
		sched, err := sys.RunConcurrent(system.DriverConfig{Seed: seed, AbortProb: 0.1, Mode: core.Exclusive})
		if err != nil {
			b.Fatal(err)
		}
		if err := checker.CheckAll(sched, sys.SystemType()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkload runs one point of a txsim experiment inside a benchmark
// iteration loop and reports committed-transactions/sec. mk is the sim
// package's own per-point constructor — the one statement of the
// experiment — and the benchmark shrinks only its transaction count.
func benchWorkload(b *testing.B, txs int, mk func(seed int64) sim.Workload) {
	b.Helper()
	var committed, seconds float64
	for i := 0; i < b.N; i++ {
		w := mk(int64(i + 1))
		w.Transactions = txs
		res, err := sim.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		committed += float64(res.Committed)
		seconds += res.Duration.Seconds()
	}
	if seconds > 0 {
		b.ReportMetric(committed/seconds, "tx/s")
	}
}

// BenchmarkE3ReadFractionSweep: R/W locking vs exclusive vs serial as the
// read fraction rises (the paper's central qualitative claim).
func BenchmarkE3ReadFractionSweep(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 0.9} {
		rw := func(seed int64) sim.Workload { return sim.ReadFractionWorkload(seed, frac) }
		b.Run(fmt.Sprintf("rw/read=%.0f%%", frac*100), func(b *testing.B) {
			benchWorkload(b, 48, rw)
		})
		b.Run(fmt.Sprintf("exclusive/read=%.0f%%", frac*100), func(b *testing.B) {
			benchWorkload(b, 48, func(seed int64) sim.Workload {
				w := rw(seed)
				w.Exclusive = true
				return w
			})
		})
		b.Run(fmt.Sprintf("serial/read=%.0f%%", frac*100), func(b *testing.B) {
			benchWorkload(b, 48, func(seed int64) sim.Workload { return rw(seed).Serial() })
		})
	}
}

// BenchmarkE4NestingDepth: throughput as nesting deepens at fixed leaf
// work.
func BenchmarkE4NestingDepth(b *testing.B) {
	for _, depth := range []int{0, 1, 2, 3} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchWorkload(b, 32, func(seed int64) sim.Workload { return sim.DepthWorkload(seed, depth) })
		})
	}
}

// BenchmarkE5AbortRate: recovery under rising voluntary-abort rates.
func BenchmarkE5AbortRate(b *testing.B) {
	for _, p := range []float64{0, 0.2, 0.5} {
		b.Run(fmt.Sprintf("abort=%.0f%%", p*100), func(b *testing.B) {
			benchWorkload(b, 32, func(seed int64) sim.Workload { return sim.AbortWorkload(seed, p) })
		})
	}
}

// BenchmarkE6LockChainInvariant: high-contention stress with Lemma 21
// checked each iteration.
func BenchmarkE6LockChainInvariant(b *testing.B) {
	w := sim.Workload{
		Objects: 1, Transactions: 24, Concurrency: 8,
		Depth: 1, Fanout: 2, OpsPerLeaf: 2, ReadFraction: 0.5,
		HotspotFraction: 1,
	}
	for i := 0; i < b.N; i++ {
		w.Seed = int64(i + 1)
		res, err := sim.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Manager.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7InheritanceOverhead: the same single access wrapped in
// deeper and deeper committing chains; the delta is the cost of lock
// inheritance per level.
func BenchmarkE7InheritanceOverhead(b *testing.B) {
	for _, depth := range []int{0, 2, 4, 8} {
		b.Run(fmt.Sprintf("chain=%d", depth), func(b *testing.B) {
			m := nestedtx.NewManager()
			m.MustRegister("x", nestedtx.Counter{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var body func(tx *nestedtx.Tx) error
				remaining := depth
				body = func(tx *nestedtx.Tx) error {
					if remaining == 0 {
						_, err := tx.Do("x", nestedtx.CtrAdd{Delta: 1})
						return err
					}
					remaining--
					return tx.Sub(body)
				}
				remaining = depth
				if err := m.Run(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Equieffectiveness: the probe-based equieffectiveness test of
// §4.1 on register schedules (the semantic-condition harness).
func BenchmarkE8Equieffectiveness(b *testing.B) {
	st := event.NewSystemType()
	st.DefineObject("X", adt.NewRegister(int64(0)))
	parent := tree.TID("T0.0")
	var alpha event.Schedule
	cur := int64(0)
	for i := 0; i < 16; i++ {
		id := parent.Child(i)
		if i%2 == 0 {
			st.MustDefineAccess(id, "X", adt.RegWrite{V: int64(i)})
			cur = int64(i)
		} else {
			st.MustDefineAccess(id, "X", adt.RegRead{})
		}
		alpha = append(alpha,
			event.Event{Kind: event.Create, T: id},
			event.Event{Kind: event.RequestCommit, T: id, Value: cur})
	}
	beta := alpha.Filter(func(e event.Event) bool { return st.IsWriteAccess(e.T) })
	probe := tree.TID("T0.0").Child(99)
	st.MustDefineAccess(probe, "X", adt.RegRead{})
	probes := []event.Schedule{{
		{Kind: event.Create, T: probe},
		{Kind: event.RequestCommit, T: probe, Value: cur},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !object.Equieffective(st, "X", alpha, beta, probes) {
			b.Fatal("write-equal schedules must be equieffective")
		}
	}
}

// --- Micro-benchmarks of the runtime hot paths -------------------------

func BenchmarkAcquireUncontendedWrite(b *testing.B) {
	m := nestedtx.NewManager()
	m.MustRegister("x", nestedtx.Counter{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(func(tx *nestedtx.Tx) error {
			_, err := tx.Do("x", nestedtx.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAcquireSharedReads(b *testing.B) {
	m := nestedtx.NewManager()
	m.MustRegister("x", nestedtx.Counter{})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := m.Run(func(tx *nestedtx.Tx) error {
				_, err := tx.Do("x", nestedtx.CtrGet{})
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHotCounterReads: transactions that each read 8 of 64 counters
// past 255, none of which changes. A read of an unchanged version is
// answered from the value the lock manager kept with it, so allocs/op is
// the transaction's own (its Tx) and no box per read.
func BenchmarkHotCounterReads(b *testing.B) {
	m := nestedtx.NewManager()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("hot%02d", i)
		m.MustRegister(names[i], nestedtx.Counter{N: 1 << 20})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(func(tx *nestedtx.Tx) error {
			for j := range 8 {
				if _, err := tx.Do(names[(i*8+j)%len(names)], nestedtx.CtrGet{}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotCounterWriteThenRead: transactions that each add 1 to one
// of 64 counters past 255 and read it back. The add returns the new
// total, which is what CtrGet reads, so the lock manager keeps it as the
// read's value: allocs/op is the add's new state and its value, and no
// box for the read.
func BenchmarkHotCounterWriteThenRead(b *testing.B) {
	m := nestedtx.NewManager()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("hot%02d", i)
		m.MustRegister(names[i], nestedtx.Counter{N: 1 << 20})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := names[i%len(names)]
		if err := m.Run(func(tx *nestedtx.Tx) error {
			if _, err := tx.Do(x, nestedtx.CtrAdd{Delta: 1}); err != nil {
				return err
			}
			_, err := tx.Do(x, nestedtx.CtrGet{})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecordingOverhead(b *testing.B) {
	m := nestedtx.NewManager(nestedtx.WithRecording())
	m.MustRegister("x", nestedtx.Counter{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(func(tx *nestedtx.Tx) error {
			_, err := tx.Do("x", nestedtx.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVisibleComputation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sys, err := system.Generate(rng, genCfg)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := sys.RunConcurrent(system.DriverConfig{Seed: 1, AbortProb: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sched.Visible(tree.Root)
	}
}

func BenchmarkCheckerWitness(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sys, err := system.Generate(rng, genCfg)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := sys.RunConcurrent(system.DriverConfig{Seed: 2, AbortProb: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Check(sched, sys.SystemType(), tree.Root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9EngineComparison: Moss R/W locking vs Reed-style MVTO on
// identical flat workloads (the paper's cited alternative as baseline).
func BenchmarkE9EngineComparison(b *testing.B) {
	for _, frac := range []float64{0.25, 0.9} {
		mk := func(seed int64) sim.Workload { return sim.ReadFractionWorkload(seed, frac) }
		b.Run(fmt.Sprintf("locking/read=%.0f%%", frac*100), func(b *testing.B) {
			benchWorkload(b, 48, mk)
		})
		b.Run(fmt.Sprintf("mvto/read=%.0f%%", frac*100), func(b *testing.B) {
			var committed, seconds float64
			for i := 0; i < b.N; i++ {
				w := mk(int64(i + 1))
				w.Transactions = 48
				res, err := sim.RunMVTO(w)
				if err != nil {
					b.Fatal(err)
				}
				committed += float64(res.Committed)
				seconds += res.Duration.Seconds()
			}
			if seconds > 0 {
				b.ReportMetric(committed/seconds, "tx/s")
			}
		})
	}
}

// BenchmarkRegisterUniverse: registering the objects bench/'s workloads
// start from, into a fresh manager per iteration — the work their setup_s
// times, without the network. counters=65536 is embed_nested's and
// net_small's universe, counters=64 embed_hot_rw's, and
// durable-accounts=4096 net_durable_bank's: a durable manager opened on
// the device bench/ models (memory plus a 1 ms fsync), its log closed
// outside the timer.
func BenchmarkRegisterUniverse(b *testing.B) {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	register := func(b *testing.B, m *nestedtx.Manager, objs []string, initial nestedtx.State) {
		for _, x := range objs {
			if err := m.Register(x, initial); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int{1 << 16, 64} {
		counters := names("obj", n)
		b.Run(fmt.Sprintf("counters=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				register(b, nestedtx.NewManager(), counters, nestedtx.Counter{})
			}
		})
	}
	accounts := names("acct", 4096)
	b.Run("durable-accounts=4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			device := wal.NewFaultFS(wal.NewMemFS())
			device.SetSyncDelay(time.Millisecond)
			m, _, err := nestedtx.OpenDurable("wal", nestedtx.DurableOptions{FS: device})
			if err != nil {
				b.Fatal(err)
			}
			register(b, m, accounts, nestedtx.Account{Balance: 1_000_000})
			b.StopTimer()
			if err := m.CloseWAL(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkDurableHotObject: b.N increments of one counter on a durable
// manager, shared among 1, 2 and 8 writers, on the device bench/ models
// (memory plus a 1 ms fsync). Every writer conflicts with every other,
// so tx/s shows how long the write lock is held relative to the device:
// across the fsync, writers queue one device latency apiece and each
// commit gets its own fsync; released at the stage, they share one.
func BenchmarkDurableHotObject(b *testing.B) {
	for _, writers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			device := wal.NewFaultFS(wal.NewMemFS())
			device.SetSyncDelay(time.Millisecond)
			m, _, err := nestedtx.OpenDurable("wal", nestedtx.DurableOptions{FS: device})
			if err != nil {
				b.Fatal(err)
			}
			defer m.CloseWAL()
			m.MustRegister("hot", nestedtx.Counter{})
			if err := m.SyncWAL(); err != nil {
				b.Fatal(err)
			}
			met := m.Metrics()
			fsyncs0 := met.WalFsyncs.Load()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if err := m.Run(func(tx *nestedtx.Tx) error {
							_, err := tx.Write("hot", nestedtx.CtrAdd{Delta: 1})
							return err
						}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "tx/s")
			b.ReportMetric(float64(met.WalFsyncs.Load()-fsyncs0)/float64(b.N), "fsyncs/commit")
			b.ReportMetric(float64(met.WalMaxBatch.Load()), "max-batch")
			if lw := met.LockWait.Snapshot(); lw.Count > 0 {
				b.ReportMetric(float64(lw.Sum.Microseconds())/float64(lw.Count), "lock-wait-us/wait")
				b.ReportMetric(float64(lw.Sum.Microseconds())/float64(b.N), "lock-wait-us/tx")
			}
		})
	}
}

// Benchmarks for the lock-manager hot paths: commit/abort cost as a
// function of the registered-object universe (BenchmarkCommitFootprint)
// and of the other lock holders (BenchmarkAbortBesideHolders), and wakeup
// fan-out under contention (BenchmarkContendedWakeup).
//
// Run with:
//
//	go test -bench 'CommitFootprint|AbortBesideHolders|ContendedWakeup' -benchtime 100x ./internal/lockmgr
//
// Results are tracked across revisions in BENCH_lockmgr.json at the repo
// root: commit/abort cost must stay flat as the universe grows 16→4096,
// and wakeups per commit must be bounded by the number of *conflicting*
// waiters, not the total number of waiters in the system.
package lockmgr

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nestedtx/internal/adt"
	"nestedtx/internal/core"
	"nestedtx/internal/tree"
)

// queueDepth reports how many waiters are currently blocked on x, so the
// benchmark can hold a commit until the contending reader has parked.
func (m *Manager) queueDepth(x string) int {
	sh := m.shardFor(x)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(m.lookup(x).queue)
}

// reportWakeups reports wakeup fan-out per measured iteration.
func reportWakeups(b *testing.B, before, after Stats) {
	if b.N == 0 {
		return
	}
	b.ReportMetric(float64(after.Wakeups-before.Wakeups)/float64(b.N), "wakeups/op")
	b.ReportMetric(float64(after.SpuriousWakeups-before.SpuriousWakeups)/float64(b.N), "spurious/op")
}

// objName names the i'th benchmark object.
func objName(i int) string { return fmt.Sprintf("o%d", i) }

// newBenchMgr returns a manager with n registered register-objects.
func newBenchMgr(b *testing.B, n int) *Manager {
	b.Helper()
	m := New(nil, core.ReadWrite, nil)
	for i := 0; i < n; i++ {
		if err := m.Register(objName(i), adt.NewRegister(int64(0))); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkCommitFootprint measures the cost of Commit and Abort for a
// transaction touching a fixed footprint (4 objects) as the registered
// universe grows 16 → 4096. With the held-locks index the cost tracks the
// footprint; a commit that iterates every registered object degrades
// linearly in the universe size.
func BenchmarkCommitFootprint(b *testing.B) {
	const footprint = 4
	for _, universe := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("commit/objects=%d", universe), func(b *testing.B) {
			m := newBenchMgr(b, universe)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := tree.Root.Child(i)
				for k := 0; k < footprint; k++ {
					x := objName((i*footprint + k) % universe)
					if _, err := m.Acquire(tx, tx.Child(k), x, adt.RegWrite{V: int64(i)}, nil); err != nil {
						b.Fatal(err)
					}
				}
				m.Commit(tx, int64(0))
			}
		})
		b.Run(fmt.Sprintf("abort/objects=%d", universe), func(b *testing.B) {
			m := newBenchMgr(b, universe)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := tree.Root.Child(i)
				for k := 0; k < footprint; k++ {
					x := objName((i*footprint + k) % universe)
					if _, err := m.Acquire(tx, tx.Child(k), x, adt.RegWrite{V: int64(i)}, nil); err != nil {
						b.Fatal(err)
					}
				}
				m.Abort(tx)
			}
		})
	}
}

// BenchmarkAbortBesideHolders measures acquire + Abort of a one-lock
// transaction while `holders` other top-level transactions each hold a
// lock in the same shard. Abort walks its own tree's record, so what is
// left of the bystanders is a bigger map to probe and a bigger heap to
// mark (about 2× at 100,000); an Abort that scans every lock holder of
// the shard for descendants of the aborted transaction grows with them
// (EXPERIMENTS.md E25: 1.5 µs → 0.9 ms at 100,000).
func BenchmarkAbortBesideHolders(b *testing.B) {
	for _, holders := range []int{0, 1000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("holders=%d", holders), func(b *testing.B) {
			m := NewSharded(nil, core.ReadWrite, nil, 1)
			for _, x := range []string{"shared", "own"} {
				if err := m.Register(x, adt.NewRegister(int64(0))); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < holders; i++ {
				tx := tree.Root.Child(i)
				if _, err := m.Acquire(tx, tx.Child(0), "shared", adt.RegRead{}, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := tree.Root.Child(holders + i)
				if _, err := m.Acquire(tx, tx.Child(0), "own", adt.RegWrite{V: int64(i)}, nil); err != nil {
					b.Fatal(err)
				}
				m.Abort(tx)
			}
		})
	}
}

// BenchmarkShardScaling sweeps GOMAXPROCS × shard-count over a workload
// of disjoint-footprint transactions: each worker owns 4 private objects
// and runs acquire×4 → commit in a loop, so transactions never conflict
// and the only serialisation left is the lock-table mutex itself. With
// shards=1 every commit funnels through one mutex (the pre-shard
// design); with shards=procs the footprints hash across independent
// shards and commits proceed in parallel. Results are tracked in
// BENCH_shard.json at the repo root (see EXPERIMENTS.md E15 for the
// caveat about measuring on a 1-core container).
func BenchmarkShardScaling(b *testing.B) {
	const footprint = 4
	// maxWorkers bounds the worker IDs RunParallel can hand out; each
	// worker's objects are registered up front for every case.
	const maxWorkers = 32
	for _, procs := range []int{1, 4, 16} {
		for _, shards := range []int{1, 16} {
			b.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				m := NewSharded(nil, core.ReadWrite, nil, shards)
				for w := 0; w < maxWorkers; w++ {
					for k := 0; k < footprint; k++ {
						if err := m.Register(fmt.Sprintf("w%d_o%d", w, k), adt.NewRegister(int64(0))); err != nil {
							b.Fatal(err)
						}
					}
				}
				var widCtr atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					w := int(widCtr.Add(1)-1) % maxWorkers
					names := make([]string, footprint)
					for k := range names {
						names[k] = fmt.Sprintf("w%d_o%d", w, k)
					}
					for i := 0; pb.Next(); i++ {
						tx := tree.Root.Child(w*10_000_000 + i)
						for k, x := range names {
							if _, err := m.Acquire(tx, tx.Child(k), x, adt.RegWrite{V: int64(i)}, nil); err != nil {
								b.Fatal(err)
							}
						}
						m.Commit(tx, int64(0))
					}
				})
			})
		}
	}
}

// BenchmarkContendedWakeup measures the cost of one contended
// write→commit→wake cycle on a hot object while `bystanders` unrelated
// waiters are blocked on other objects. A global wake-all disturbs every
// bystander on every commit (each rescans under the manager mutex); with
// per-object queues the commit wakes only the one conflicting waiter, so
// the cost is independent of the bystander count.
func BenchmarkContendedWakeup(b *testing.B) {
	for _, bystanders := range []int{0, 16, 256} {
		b.Run(fmt.Sprintf("bystanders=%d", bystanders), func(b *testing.B) {
			m := newBenchMgr(b, bystanders+1)
			hot := objName(bystanders)
			// Park `bystanders` waiters, each blocked on its own object whose
			// write lock is held by an unrelated transaction. They stay
			// blocked for the whole measured run.
			var parked sync.WaitGroup
			for i := 0; i < bystanders; i++ {
				holder := tree.Root.Child(1_000_000 + i)
				if _, err := m.Acquire(holder, holder.Child(0), objName(i), adt.RegWrite{V: int64(1)}, nil); err != nil {
					b.Fatal(err)
				}
				parked.Add(1)
				go func(i int) {
					defer parked.Done()
					blocked := tree.Root.Child(2_000_000 + i)
					if _, err := m.Acquire(blocked, blocked.Child(0), objName(i), adt.RegWrite{V: int64(2)}, nil); err != nil {
						b.Error(err)
					}
					m.Commit(blocked, int64(0))
				}(i)
			}
			statsBefore := m.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				writer := tree.Root.Child(3_000_000 + 2*i)
				reader := tree.Root.Child(3_000_000 + 2*i + 1)
				if _, err := m.Acquire(writer, writer.Child(0), hot, adt.RegWrite{V: int64(i)}, nil); err != nil {
					b.Fatal(err)
				}
				done := make(chan error, 1)
				go func() {
					_, err := m.Acquire(reader, reader.Child(0), hot, adt.RegRead{}, nil)
					done <- err
				}()
				// Hold the commit until the reader has parked, so every
				// iteration measures a real block→commit→wake cycle.
				for m.queueDepth(hot) == 0 {
					runtime.Gosched()
				}
				m.Commit(writer, int64(0))
				if err := <-done; err != nil {
					b.Fatal(err)
				}
				m.Commit(reader, int64(0))
			}
			b.StopTimer()
			statsAfter := m.Stats()
			reportWakeups(b, statsBefore, statsAfter)
			// Release the parked waiters so goroutines do not leak into the
			// next sub-benchmark.
			for i := 0; i < bystanders; i++ {
				m.Commit(tree.Root.Child(1_000_000+i), int64(0))
			}
			parked.Wait()
		})
	}
}

package repl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/obs"
	"nestedtx/internal/wal"
)

// BenchmarkReplCatchup measures bulk catch-up throughput: a leader log
// pre-populated with b.N single-effect commit records is streamed to a
// cold follower whose own WAL lives on the real file system, so each
// reported op is one record shipped over TCP, CRC-checked, appended
// durably (one fsync per batch) and applied. records/s is the headline
// catch-up rate.
func BenchmarkReplCatchup(b *testing.B) {
	fs := wal.NewMemFS()
	leader := newLeaderLog(b, fs, "leader", wal.Options{})
	defer leader.lg.Close()
	leader.register("ctr", adt.Counter{})
	for i := 0; i < b.N; i++ {
		leader.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	target := leader.lg.Stats().NextLSN
	sh := NewShipper(leader.lg, &obs.Metrics{})
	addr, stop := serveShipper(b, sh)
	defer stop()

	b.ResetTimer()
	f, err := OpenFollower(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatalf("OpenFollower: %v", err)
	}
	go f.Run(addr)
	for f.Status().NextLSN < target {
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "records/s")
	}
	f.Close()
}

// BenchmarkReplSteadyState measures live-stream lag under write load: W
// concurrent writers append durable commits to the leader (the same
// append pattern W committing server sessions produce) while a connected
// follower streams them, and the follower's reported lag is sampled
// throughout. lag-records-mean/max say how far an asynchronous replica
// trails a busy leader in the steady state.
func BenchmarkReplSteadyState(b *testing.B) {
	for _, writers := range []int{16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			leader := newLeaderLog(b, nil, b.TempDir(), wal.Options{})
			defer leader.lg.Close()
			leader.register("ctr", adt.Counter{})
			sh := NewShipper(leader.lg, &obs.Metrics{})
			addr, stop := serveShipper(b, sh)
			defer stop()
			f, err := OpenFollower(b.TempDir(), wal.Options{})
			if err != nil {
				b.Fatalf("OpenFollower: %v", err)
			}
			defer f.Close()
			go f.Run(addr)
			waitFor(b, "connect", func() bool { return f.Status().Connected })

			// Lag sampler: every 2ms while the writers run. Lag is taken
			// from the leader's ledger (durable position minus the
			// follower's last ack) — the follower's own view undercounts,
			// since it cannot know about records it has not yet heard of.
			var lagSum, lagMax, samples int64
			sampleDone := make(chan struct{})
			var sampling sync.WaitGroup
			sampling.Add(1)
			go func() {
				defer sampling.Done()
				tick := time.NewTicker(2 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-sampleDone:
						return
					case <-tick.C:
						var lag int64
						if st := sh.Status(); len(st.Followers) > 0 {
							lag = int64(st.Followers[0].LagRecords)
						}
						atomic.AddInt64(&lagSum, lag)
						atomic.AddInt64(&samples, 1)
						for {
							m := atomic.LoadInt64(&lagMax)
							if lag <= m || atomic.CompareAndSwapInt64(&lagMax, m, lag) {
								break
							}
						}
					}
				}
			}()

			b.ResetTimer()
			var wg sync.WaitGroup
			var seq atomic.Int64
			for w := 0; w < writers; w++ {
				n := b.N / writers
				if w < b.N%writers {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						rec := wal.Record{Commit: &wal.CommitRecord{
							TID: fmt.Sprintf("T0.%d", seq.Add(1)), Value: int64(1),
							Effects: []wal.Effect{{Obj: "ctr", Op: adt.CtrAdd{Delta: 1}, Val: int64(1)}},
						}}
						if err := leader.lg.AppendApply(rec, nil); err != nil {
							b.Errorf("Append: %v", err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			close(sampleDone)
			sampling.Wait()

			// Drain so the run ends in a clean, comparable state.
			target := leader.lg.Stats().NextLSN
			deadline := time.Now().Add(30 * time.Second)
			for f.Status().NextLSN < target && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := atomic.LoadInt64(&samples); n > 0 {
				b.ReportMetric(float64(atomic.LoadInt64(&lagSum))/float64(n), "lag-records-mean")
				b.ReportMetric(float64(atomic.LoadInt64(&lagMax)), "lag-records-max")
			}
		})
	}
}

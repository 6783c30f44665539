package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/obs"
)

// BenchmarkGroupCommit measures fsync amortisation: W concurrent writers
// append durable commit records to a log on the real file system, and
// the reported "fsyncs/commit" metric is the number of physical fsyncs
// divided by the number of acknowledged commits. With one writer every
// commit pays a full fsync (≈1.0); with concurrent writers the batch
// shares it (≪1.0).
//
// The delay dimension injects extra fsync latency through FaultFS: a
// slow disk makes the cost of serializing appends behind a flush visible
// even on one core — with the pipelined write path, appenders keep
// writing the active segment while the fsync is in flight, so throughput
// approaches batch-size × per-fsync rate instead of collapsing toward
// one commit per flush.
func BenchmarkGroupCommit(b *testing.B) {
	type cfg struct {
		delay   time.Duration
		writers int
	}
	// The slow-fsync rows inject 1 ms per fsync (the acceptance
	// configuration is delay=1ms/writers=16).
	cfgs := []cfg{{0, 1}, {0, 4}, {0, 16}, {time.Millisecond, 4}, {time.Millisecond, 16}}

	for _, c := range cfgs {
		name := fmt.Sprintf("delay=%v/writers=%d", c.delay, c.writers)
		b.Run(name, func(b *testing.B) {
			met := &obs.Metrics{}
			ffs := NewFaultFS(OSFS{})
			ffs.SetSyncDelay(c.delay)
			lg, _, err := Open(b.TempDir(), Options{FS: ffs, Metrics: met})
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			defer lg.Close()

			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < c.writers; w++ {
				n := b.N / c.writers
				if w < b.N%c.writers {
					n++
				}
				wg.Add(1)
				go func(w, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						r := Record{Commit: &CommitRecord{
							TID: fmt.Sprintf("T0.%d", w),
							Effects: []Effect{
								{Obj: "ctr", Op: adt.CtrAdd{Delta: 1}, Val: int64(i)},
							},
						}}
						if err := lg.AppendApply(r, nil); err != nil {
							b.Errorf("Append: %v", err)
							return
						}
					}
				}(w, n)
			}
			wg.Wait()
			b.StopTimer()

			s := met.Snapshot()
			if s.WalAppends > 0 {
				b.ReportMetric(float64(s.WalFsyncs)/float64(s.WalAppends), "fsyncs/commit")
				b.ReportMetric(float64(s.WalMaxBatch), "max-batch")
			}
			if s.WalFsyncs > 0 {
				b.ReportMetric(float64(s.FsyncLatency.Sum.Microseconds())/float64(s.WalFsyncs), "µs/fsync")
			}
		})
	}
}

// BenchmarkStagers measures the way into the log under a crowd: n
// goroutines each stage one record and wait for it, all at once, on
// MemFS (no device, so what is left is the staging section, the ticket
// hand-off and the scheduler). ns/record staying flat from n=1000 to
// n=10000 is the point: a stager costs one critical section, not a
// wake-up per stager ahead of it.
func BenchmarkStagers(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			met := &obs.Metrics{}
			lg, _, err := Open("d", Options{FS: NewMemFS(), Metrics: met})
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			defer lg.Close()
			if err := lg.AppendApply(Record{Register: &RegisterRecord{Name: "reg", Initial: adt.NewRegister(int64(0))}}, nil); err != nil {
				b.Fatalf("register: %v", err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				wg.Add(n)
				for g := 0; g < n; g++ {
					go func(v int64) {
						defer wg.Done()
						tk, err := lg.Stage(regWrite(v), nil)
						if err == nil {
							err = tk.Wait()
						}
						if err != nil {
							b.Errorf("stager: %v", err)
						}
					}(int64(g))
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
			if s := met.Snapshot(); s.WalAppends > 0 {
				b.ReportMetric(float64(s.WalFsyncs)/float64(s.WalAppends), "fsyncs/record")
			}
		})
	}
}

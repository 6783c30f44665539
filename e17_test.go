// E17 — read-only snapshot transactions vs locked scans (EXPERIMENTS.md).
//
// A scan-heavy workload (~90% of accesses are scan reads over a zipfian
// universe, ~10% zipfian writer updates) run two ways: scanners as
// ordinary locking transactions (read locks on every scanned object,
// held to commit under strict locking), and scanners as read-only
// snapshot transactions over the committed version store (no locks at
// all). Each cell runs for a fixed wall-clock window and reports writer
// throughput under the scan load and completed scans/sec — the
// before/after of the snapshot-transaction tentpole. The window design
// is deliberate: under locked scans, readers are granted past queued
// writers (read locks are compatible with each other, and waiters do
// not block grants), so overlapping continuous scans can starve writers
// indefinitely — a completion-count design would simply hang.
package nestedtx_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx"
)

// e17Config shapes one E17 cell.
type e17Config struct {
	objects  int
	scanners int
	writers  int
	window   time.Duration // wall-clock run time of the cell
	thinkNs  int           // per-scan-read latency (models an analytics scan)
	snapshot bool          // scanners use RunReadOnly instead of locking reads
}

// e17Result is one measured cell.
type e17Result struct {
	dur       time.Duration
	writerTx  int64
	scans     int64
	scanReads int64
	deadlocks uint64
}

func (r e17Result) writerTps() float64   { return float64(r.writerTx) / r.dur.Seconds() }
func (r e17Result) scansPerSec() float64 { return float64(r.scans) / r.dur.Seconds() }

// runE17 runs scanners and writers concurrently for the window.
func runE17(cfg e17Config, seed int64) (e17Result, error) {
	m := nestedtx.NewManager()
	for i := 0; i < cfg.objects; i++ {
		m.MustRegister(fmt.Sprintf("obj%d", i), nestedtx.Counter{})
	}
	var (
		scans, scanReads, writerTx int64
		stop                       = make(chan struct{})
		wg                         sync.WaitGroup
		firstErr                   atomic.Value
	)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	fail := func(err error) { firstErr.CompareAndSwap(nil, err) }

	// Scanners: full sweeps of the universe, continuously. In locking
	// mode every read takes (and keeps, to commit) a read lock; in
	// snapshot mode no locks are involved.
	for s := 0; s < cfg.scanners; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				var err error
				if cfg.snapshot {
					err = m.RunReadOnly(func(sn *nestedtx.Snapshot) error {
						for i := 0; i < cfg.objects; i++ {
							if _, err := sn.Read(fmt.Sprintf("obj%d", i), nestedtx.CtrGet{}); err != nil {
								return err
							}
							atomic.AddInt64(&scanReads, 1)
							think(cfg.thinkNs)
						}
						return nil
					})
				} else {
					err = m.RunRetry(10, func(tx *nestedtx.Tx) error {
						for i := 0; i < cfg.objects; i++ {
							if _, err := tx.Read(fmt.Sprintf("obj%d", i), nestedtx.CtrGet{}); err != nil {
								return err
							}
							atomic.AddInt64(&scanReads, 1)
							think(cfg.thinkNs)
						}
						return nil
					})
				}
				if err != nil && !errors.Is(err, nestedtx.ErrDeadlock) {
					fail(err)
					return
				}
				if err == nil {
					atomic.AddInt64(&scans, 1)
				}
			}
		}()
	}

	// Writers: short zipfian two-object transfers, as many as the window
	// admits. Under locked scans this is where starvation bites.
	for w := 0; w < cfg.writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(cfg.objects-1))
			for !stopped() {
				a := int(zipf.Uint64())
				b := int(zipf.Uint64())
				if b == a {
					b = (a + 1) % cfg.objects
				}
				err := m.RunRetry(10, func(tx *nestedtx.Tx) error {
					if _, err := tx.Write(fmt.Sprintf("obj%d", a), nestedtx.CtrAdd{Delta: 1}); err != nil {
						return err
					}
					_, err := tx.Write(fmt.Sprintf("obj%d", b), nestedtx.CtrAdd{Delta: -1})
					return err
				})
				if err != nil {
					if !errors.Is(err, nestedtx.ErrDeadlock) {
						fail(err)
						return
					}
					continue // gave up after retries; not counted
				}
				atomic.AddInt64(&writerTx, 1)
			}
		}(seed ^ int64(0x517cc1b7)<<w)
	}

	start := time.Now()
	time.Sleep(cfg.window)
	// (scanners mid-scan drain after the window; dur measures to full stop)
	close(stop)
	wg.Wait()
	dur := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return e17Result{}, err
	}
	if err := m.CheckInvariants(); err != nil {
		return e17Result{}, err
	}
	return e17Result{
		dur:       dur,
		writerTx:  atomic.LoadInt64(&writerTx),
		scans:     atomic.LoadInt64(&scans),
		scanReads: atomic.LoadInt64(&scanReads),
		deadlocks: m.Stats().Deadlocks,
	}, nil
}

// BenchmarkE17SnapshotScans is the E17 grid: locked scans vs snapshot
// scans at the same writer workload. Writer tx/s is the headline metric
// (do long scans stall writers?); scans/s is the scan side of the trade.
func BenchmarkE17SnapshotScans(b *testing.B) {
	for _, scan := range []struct {
		name    string
		thinkNs int
	}{{"fast-scan", 0}, {"slow-scan", 20000}} {
		for _, mode := range []struct {
			name string
			snap bool
		}{{"locked", false}, {"snapshot", true}} {
			cfg := e17Config{
				objects: 64, scanners: 4, writers: 4,
				window:  300 * time.Millisecond,
				thinkNs: scan.thinkNs, snapshot: mode.snap,
			}
			b.Run(scan.name+"/"+mode.name, func(b *testing.B) {
				var agg e17Result
				for i := 0; i < b.N; i++ {
					res, err := runE17(cfg, int64(i+1))
					if err != nil {
						b.Fatal(err)
					}
					agg.dur += res.dur
					agg.writerTx += res.writerTx
					agg.scans += res.scans
					agg.scanReads += res.scanReads
					agg.deadlocks += res.deadlocks
				}
				b.ReportMetric(agg.writerTps(), "writer-tx/s")
				b.ReportMetric(agg.scansPerSec(), "scans/s")
				b.ReportMetric(float64(agg.deadlocks)/float64(b.N), "deadlocks/op")
			})
		}
	}
}

// think models per-read latency while the scan is in flight (and, in
// locked mode, while its read locks are held).
func think(ns int) {
	if ns > 0 {
		time.Sleep(time.Duration(ns))
	}
}

// TestE17SnapshotScansSmoke keeps the E17 harness honest in `go test`:
// both modes run and complete scans; the snapshot mode also commits
// writer transactions (the locked mode may legitimately starve them).
func TestE17SnapshotScansSmoke(t *testing.T) {
	for _, snap := range []bool{false, true} {
		cfg := e17Config{objects: 16, scanners: 2, writers: 2, window: 100 * time.Millisecond, snapshot: snap}
		res, err := runE17(cfg, 7)
		if err != nil {
			t.Fatalf("snapshot=%v: %v", snap, err)
		}
		if res.scans == 0 {
			t.Fatalf("snapshot=%v: no scans completed", snap)
		}
		if snap && res.writerTx == 0 {
			t.Fatal("snapshot mode: no writer transactions committed")
		}
	}
}

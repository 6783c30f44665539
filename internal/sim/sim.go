// Package sim generates parameterised workloads for the nestedtx runtime
// and measures them — the experiment harness behind EXPERIMENTS.md and the
// benchmark suite.
//
// A workload is a population of top-level transactions, each a tree of
// concurrent subtransactions bottoming out in read/write accesses against
// a shared set of objects. Knobs cover the axes the paper's qualitative
// claims speak to: read fraction (read/write vs exclusive locking),
// nesting depth and fanout (intra-transaction concurrency), abort rate
// (recovery), and contention (hotspots).
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nestedtx"
)

// Workload parameterises one experiment run.
type Workload struct {
	// Objects is the number of shared counters.
	Objects int
	// Transactions is the number of top-level transactions to run.
	Transactions int
	// Concurrency is how many worker goroutines submit transactions.
	Concurrency int
	// Depth is the nesting depth: 0 means accesses directly in the
	// top-level transaction; d>0 adds d levels of subtransactions.
	Depth int
	// Fanout is the number of concurrent subtransactions per level.
	Fanout int
	// OpsPerLeaf is the number of accesses each leaf transaction performs.
	OpsPerLeaf int
	// WriterOps, when positive, overrides OpsPerLeaf for write-classified
	// transactions (only meaningful with ReadTxFraction): update
	// transactions touching a single object cannot deadlock with each
	// other, which isolates the read-concurrency effect in E3.
	WriterOps int
	// ReadFraction is the probability an access is a read (per-access
	// classification; mixing reads and writes of the same object inside
	// one transaction invites lock-upgrade deadlocks, which is itself an
	// effect worth measuring).
	ReadFraction float64
	// ReadTxFraction, when positive, classifies whole top-level
	// transactions instead: this fraction are read-only (every access a
	// read), the rest write-only. This is the clean design for the
	// read-concurrency experiment (E3) — no upgrade deadlocks.
	ReadTxFraction float64
	// ReadOnlyTxFraction routes this share of submitted transactions
	// through Manager.RunReadOnly — snapshot scans over the committed
	// version store (OpsPerLeaf CtrGet reads each) instead of locking
	// transactions. Unlike ReadTxFraction's read-locked transactions,
	// these take no locks at all; E17 compares the two regimes.
	ReadOnlyTxFraction float64
	// HotspotFraction routes this share of accesses to object 0.
	HotspotFraction float64
	// AbortProb is the probability a leaf subtransaction voluntarily
	// aborts after doing its work.
	AbortProb float64
	// ThinkNs sleeps this many nanoseconds after each access — latency
	// (I/O, downstream calls) incurred while holding locks. Sleeping
	// rather than spinning lets transactions overlap regardless of core
	// count, which is what the lock discipline governs.
	ThinkNs int
	// Exclusive selects the exclusive-locking baseline (all accesses
	// treated as writes).
	Exclusive bool
	// Sequential runs subtransactions sequentially instead of
	// concurrently (the serial-execution baseline when combined with
	// Concurrency=1).
	Sequential bool
	// Record enables formal event recording (for post-run verification).
	Record bool
	// Retries bounds deadlock-retry attempts per transaction.
	Retries int
	// Seed drives the workload's randomness.
	Seed int64
}

// Validate fills defaults and rejects nonsense.
func (w *Workload) Validate() error {
	if w.Objects <= 0 || w.Transactions <= 0 {
		return errors.New("sim: need positive Objects and Transactions")
	}
	if w.Concurrency <= 0 {
		w.Concurrency = 1
	}
	if w.Fanout <= 0 {
		w.Fanout = 1
	}
	if w.OpsPerLeaf <= 0 {
		w.OpsPerLeaf = 1
	}
	if w.Retries <= 0 {
		w.Retries = 20
	}
	if w.ReadFraction < 0 || w.ReadFraction > 1 {
		return errors.New("sim: ReadFraction out of [0,1]")
	}
	if w.ReadOnlyTxFraction < 0 || w.ReadOnlyTxFraction > 1 {
		return errors.New("sim: ReadOnlyTxFraction out of [0,1]")
	}
	return nil
}

// tally is what a run's worker pool measures, whichever engine it
// drives.
type tally struct {
	Duration  time.Duration
	Committed int
	Aborted   int // transactions that gave up (after retries)
	Ops       int64
	// Latencies holds one end-to-end latency sample per submitted
	// transaction (including deadlock retries).
	Latencies []time.Duration
}

// Result summarises a run.
type Result struct {
	Workload Workload
	tally
	Retried int // deadlock retries performed
	Stats   nestedtx.Stats
	Manager *nestedtx.Manager // for verification / state inspection
}

// Percentile returns the p'th percentile latency (p in [0,100]) over the
// collected samples, or 0 when none were collected.
func (r tally) Percentile(p float64) time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(r.Latencies))
	copy(sorted, r.Latencies)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Throughput returns committed transactions per second.
func (r tally) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Duration.Seconds()
}

// OpsPerSec returns accesses per second.
func (r tally) OpsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// Run executes the workload and returns its measurements.
func Run(w Workload) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	var opts []nestedtx.Option
	if w.Record {
		opts = append(opts, nestedtx.WithRecording())
	}
	if w.Exclusive {
		opts = append(opts, nestedtx.WithExclusiveLocking())
	}
	m := nestedtx.NewManager(opts...)
	for i := 0; i < w.Objects; i++ {
		if err := m.Register(objName(i), nestedtx.Counter{}); err != nil {
			return Result{}, err
		}
	}

	var retried int64
	t := drive(&w, func(rng *rand.Rand, ops *int64) error {
		return runOne(m, &w, rng, ops, &retried)
	})

	// Every run ends with the lock-table invariant check: a workload that
	// leaves residual locks or a corrupted table is a checker failure, not
	// a measurement. (Full S9 history verification needs WithRecording and
	// stays opt-in — see the test suite and the dst simulator.)
	if err := m.CheckInvariants(); err != nil {
		return Result{}, fmt.Errorf("sim: post-run lock-table invariants: %w", err)
	}

	return Result{
		Workload: w,
		tally:    t,
		Retried:  int(retried),
		Stats:    m.Stats(),
		Manager:  m,
	}, nil
}

// drive submits w.Transactions transactions from w.Concurrency workers,
// each drawing from its own RNG seeded by w.Seed ^ worker*0x9e3779b9;
// one runs a transaction and counts its accesses in ops. Both engines
// run through it.
func drive(w *Workload, one func(rng *rand.Rand, ops *int64) error) tally {
	var ops, committed, aborted int64
	var latMu sync.Mutex
	latencies := make([]time.Duration, 0, w.Transactions)
	jobs := make(chan int64)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.Concurrency; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.Seed ^ int64(worker)*0x9e3779b9))
			for range jobs {
				t0 := time.Now()
				err := one(rng, &ops)
				lat := time.Since(t0)
				latMu.Lock()
				latencies = append(latencies, lat)
				latMu.Unlock()
				if err != nil {
					atomic.AddInt64(&aborted, 1)
				} else {
					atomic.AddInt64(&committed, 1)
				}
			}
		}(c)
	}
	for i := int64(0); i < int64(w.Transactions); i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return tally{
		Duration:  time.Since(start),
		Committed: int(committed),
		Aborted:   int(aborted),
		Ops:       atomic.LoadInt64(&ops),
		Latencies: latencies,
	}
}

// runOne submits one top-level transaction through Manager.RunRetry, so
// deadlock victims restart on the runtime's own jittered backoff; every
// body invocation past the first is one retry.
func runOne(m *nestedtx.Manager, w *Workload, rng *rand.Rand, ops, retried *int64) error {
	if w.ReadOnlyTxFraction > 0 && rng.Float64() < w.ReadOnlyTxFraction {
		return snapshotScan(m, w, rng, ops)
	}
	mode := classify(w, rng)
	calls := 0
	err := m.RunRetry(w.Retries, func(tx *nestedtx.Tx) error {
		calls++
		return body(tx, w, rng, w.Depth, mode, ops)
	})
	atomic.AddInt64(retried, int64(calls-1))
	return err
}

// snapshotScan runs one read-only snapshot transaction: OpsPerLeaf
// CtrGet reads against the pinned committed prefix. It takes no locks,
// so it needs no deadlock-retry loop.
func snapshotScan(m *nestedtx.Manager, w *Workload, rng *rand.Rand, ops *int64) error {
	return m.RunReadOnly(func(s *nestedtx.Snapshot) error {
		for i := 0; i < w.OpsPerLeaf; i++ {
			if _, err := s.Read(objName(pickObject(w, rng)), nestedtx.CtrGet{}); err != nil {
				return err
			}
			atomic.AddInt64(ops, 1)
			w.think()
		}
		return nil
	})
}

// accessMode says how a transaction's accesses are classified.
type accessMode int

const (
	opMix     accessMode = iota // per-access coin flip (Workload.ReadFraction)
	allReads                    // read-only transaction
	allWrites                   // write-only transaction
)

// classify draws a top-level transaction's access mode: whole
// transactions when ReadTxFraction is set, otherwise one coin per access.
func classify(w *Workload, rng *rand.Rand) accessMode {
	if w.ReadTxFraction <= 0 {
		return opMix
	}
	if rng.Float64() < w.ReadTxFraction {
		return allReads
	}
	return allWrites
}

// body is the recursive transaction shape: at depth>0 spawn Fanout
// subtransactions; at depth 0 perform the leaf accesses.
func body(tx *nestedtx.Tx, w *Workload, rng *rand.Rand, depth int, mode accessMode, ops *int64) error {
	if depth <= 0 {
		return leaf(tx, w, rng, mode, ops)
	}
	// Pre-draw child seeds so concurrent children don't share rng.
	seeds := make([]int64, w.Fanout)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	if w.Sequential {
		for _, s := range seeds {
			childRng := rand.New(rand.NewSource(s))
			if err := tx.SubRetry(w.Retries, func(tx *nestedtx.Tx) error {
				return childBody(tx, w, childRng, depth-1, mode, ops)
			}); err != nil && !isVoluntary(err) {
				return err
			}
		}
		return nil
	}
	handles := make([]*nestedtx.Handle, 0, w.Fanout)
	for _, s := range seeds {
		childRng := rand.New(rand.NewSource(s))
		handles = append(handles, tx.Go(func(tx *nestedtx.Tx) error {
			return childBody(tx, w, childRng, depth-1, mode, ops)
		}))
	}
	for _, h := range handles {
		if err := h.Wait(); err != nil && !isVoluntary(err) {
			return err
		}
	}
	return nil
}

func childBody(tx *nestedtx.Tx, w *Workload, rng *rand.Rand, depth int, mode accessMode, ops *int64) error {
	if err := body(tx, w, rng, depth, mode, ops); err != nil {
		return err
	}
	if w.AbortProb > 0 && rng.Float64() < w.AbortProb {
		return errVoluntaryAbort
	}
	return nil
}

var errVoluntaryAbort = errors.New("sim: voluntary abort")

func isVoluntary(err error) bool { return errors.Is(err, errVoluntaryAbort) }

// leaf performs a leaf transaction's accesses on either engine's Tx.
func leaf[T interface {
	Read(obj string, op nestedtx.Op) (nestedtx.Value, error)
	Write(obj string, op nestedtx.Op) (nestedtx.Value, error)
}](tx T, w *Workload, rng *rand.Rand, mode accessMode, ops *int64) error {
	n := w.OpsPerLeaf
	if mode == allWrites && w.WriterOps > 0 {
		n = w.WriterOps
	}
	for i := 0; i < n; i++ {
		obj := objName(pickObject(w, rng))
		read := mode == allReads || mode == opMix && rng.Float64() < w.ReadFraction
		var err error
		if read {
			_, err = tx.Read(obj, nestedtx.CtrGet{})
		} else {
			_, err = tx.Write(obj, nestedtx.CtrAdd{Delta: 1})
		}
		if err != nil {
			return err
		}
		atomic.AddInt64(ops, 1)
		w.think()
	}
	return nil
}

func pickObject(w *Workload, rng *rand.Rand) int {
	if w.HotspotFraction > 0 && rng.Float64() < w.HotspotFraction {
		return 0
	}
	return rng.Intn(w.Objects)
}

func objName(i int) string { return fmt.Sprintf("obj%d", i) }

// think models per-access latency while holding locks.
func (w *Workload) think() {
	if w.ThinkNs > 0 {
		time.Sleep(time.Duration(w.ThinkNs))
	}
}

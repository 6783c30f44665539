package sim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/mvto"
)

// MVTOResult summarises a run on the multi-version timestamp engine.
type MVTOResult struct {
	Workload  Workload
	Duration  time.Duration
	Committed int
	Aborted   int // transactions that gave up after retries
	Ops       int64
	Stats     mvto.Stats
	Manager   *mvto.Manager
	Initial   map[string]adt.State
}

// Throughput returns committed transactions per second.
func (r MVTOResult) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Duration.Seconds()
}

// RunMVTO executes a *flat* workload (Depth must be 0; nesting is the
// locking engine's territory — see the package comment of internal/mvto)
// on the multi-version timestamp-ordering engine, with the same
// transaction population and classification as Run.
func RunMVTO(w Workload) (MVTOResult, error) {
	if err := w.Validate(); err != nil {
		return MVTOResult{}, err
	}
	if w.Depth != 0 {
		return MVTOResult{}, errors.New("sim: RunMVTO requires Depth == 0 (flat transactions)")
	}
	m := mvto.New()
	initial := make(map[string]adt.State, w.Objects)
	for i := 0; i < w.Objects; i++ {
		initial[objName(i)] = adt.Counter{}
		if err := m.Register(objName(i), adt.Counter{}); err != nil {
			return MVTOResult{}, err
		}
	}

	var ops, committed, aborted int64
	jobs := make(chan int64)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.Concurrency; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.Seed ^ int64(worker)*0x9e3779b9))
			for range jobs {
				mode := opMix
				if w.ReadTxFraction > 0 {
					if rng.Float64() < w.ReadTxFraction {
						mode = allReads
					} else {
						mode = allWrites
					}
				}
				err := m.Run(w.Retries, func(tx *mvto.Tx) error {
					return mvtoLeaf(tx, &w, rng, mode, &ops)
				})
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
	dur := time.Since(start)

	return MVTOResult{
		Workload:  w,
		Duration:  dur,
		Committed: int(committed),
		Aborted:   int(aborted),
		Ops:       atomic.LoadInt64(&ops),
		Stats:     m.Stats(),
		Manager:   m,
		Initial:   initial,
	}, nil
}

func mvtoLeaf(tx *mvto.Tx, w *Workload, rng *rand.Rand, mode accessMode, ops *int64) error {
	n := w.OpsPerLeaf
	if mode == allWrites && w.WriterOps > 0 {
		n = w.WriterOps
	}
	for i := 0; i < n; i++ {
		obj := objName(pickObject(w, rng))
		read := false
		switch mode {
		case allReads:
			read = true
		case allWrites:
			read = false
		default:
			read = rng.Float64() < w.ReadFraction
		}
		var err error
		if read {
			_, err = tx.Read(obj, adt.CtrGet{})
		} else {
			_, err = tx.Write(obj, adt.CtrAdd{Delta: 1})
		}
		if err != nil {
			return err
		}
		atomic.AddInt64(ops, 1)
		w.think()
	}
	return nil
}

// EnginePoint is one row of the E9 engine comparison.
type EnginePoint struct {
	Label   string
	Locking Result
	MVTO    MVTOResult
}

// EngineSweep is experiment E9: Moss read/write locking vs Reed-style
// multi-version timestamp ordering on identical flat workloads, sweeping
// the read-only transaction share. Locking trades waits (and deadlock
// victims) for no wasted work; MVTO never blocks writers but discards
// too-late ones.
func EngineSweep(seed int64, fractions []float64) ([]EnginePoint, error) {
	var out []EnginePoint
	for _, f := range fractions {
		w := ReadFractionWorkload(seed, f)
		lock, err := Run(w)
		if err != nil {
			return nil, err
		}
		mv, err := RunMVTO(w)
		if err != nil {
			return nil, err
		}
		if err := mv.Manager.VerifySerializable(mv.Initial); err != nil {
			return nil, fmt.Errorf("sim: E9 point %v: %w", f, err)
		}
		out = append(out, EnginePoint{
			Label:   fmt.Sprintf("read=%.0f%%", f*100),
			Locking: lock,
			MVTO:    mv,
		})
	}
	return out, nil
}

// WriteEngineTable renders E9 points.
func WriteEngineTable(wr io.Writer, title string, points []EnginePoint) error {
	tw := newTabWriter(wr)
	fmt.Fprintf(tw, "%s\n", title)
	fmt.Fprintf(tw, "point\tlock tx/s\tmvto tx/s\tlock waits\tlock deadlocks\tmvto waits\tmvto too-late\tlock aborted\tmvto aborted\n")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\n",
			p.Label, p.Locking.Throughput(), p.MVTO.Throughput(),
			p.Locking.Stats.Waits, p.Locking.Stats.Deadlocks,
			p.MVTO.Stats.Waits, p.MVTO.Stats.TooLates,
			p.Locking.Aborted, p.MVTO.Aborted)
	}
	return tw.Flush()
}

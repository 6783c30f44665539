package sim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"nestedtx/internal/adt"
	"nestedtx/internal/mvto"
)

// MVTOResult summarises a run on the multi-version timestamp engine.
type MVTOResult struct {
	Workload Workload
	tally
	Stats   mvto.Stats
	Manager *mvto.Manager
	Initial map[string]adt.State
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

	t := drive(&w, func(rng *rand.Rand, ops *int64) error {
		mode := classify(&w, rng)
		return m.Run(w.Retries, func(tx *mvto.Tx) error {
			return leaf(tx, &w, rng, mode, ops)
		})
	})

	return MVTOResult{
		Workload: w,
		tally:    t,
		Stats:    m.Stats(),
		Manager:  m,
		Initial:  initial,
	}, nil
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

package sim

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// newTabWriter adapts any writer into the standard table layout.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// SweepPoint is one measured configuration in a sweep.
type SweepPoint struct {
	Label   string
	RW      Result // read/write locking (Moss)
	Excl    Result // exclusive locking baseline
	Serial  Result // serial execution baseline
	HasBase bool   // whether Excl/Serial were run
}

// baseWorkload returns the common workload shape used by the standard
// experiments; sweeps override individual fields.
func baseWorkload(seed int64) Workload {
	return Workload{
		Objects:      8,
		Transactions: 200,
		Concurrency:  8,
		Depth:        1,
		Fanout:       2,
		OpsPerLeaf:   4,
		ReadFraction: 0.5,
		ThinkNs:      20000,
		Seed:         seed,
	}
}

// Serial returns w as its serial-execution baseline: one worker, siblings
// run one after another.
func (w Workload) Serial() Workload {
	w.Sequential = true
	w.Concurrency = 1
	return w
}

// ReadFractionWorkload is one point of experiment E3 — and of E9, which
// runs the same flat workload on both engines: share f of the top-level
// transactions are read-only auditors, the rest single-object updaters.
// Transactions are classified whole so the sweep isolates read
// concurrency from upgrade-deadlock effects.
func ReadFractionWorkload(seed int64, f float64) Workload {
	w := baseWorkload(seed)
	w.Depth = 0 // accesses directly in the top-level transaction
	w.OpsPerLeaf = 4
	w.WriterOps = 1 // single-object updates: no writer-writer cycles
	w.ThinkNs = 300000
	w.ReadTxFraction = f
	if f == 0 {
		w.ReadTxFraction = -1 // all writes, explicit
		w.ReadFraction = 0
		w.OpsPerLeaf = 1
	}
	w.HotspotFraction = 0.5 // contention makes the lock discipline visible
	return w
}

// DepthWorkload is one point of experiment E4: nesting depth d at fixed
// leaf work. Leaf work is pure reads over many objects so the depth axis
// measures intra-transaction concurrency (the serial system forbids
// concurrent siblings; the R/W Locking system exploits them), not
// write-deadlock churn.
func DepthWorkload(seed int64, d int) Workload {
	w := baseWorkload(seed)
	w.Depth = d
	w.Fanout = 2
	w.Transactions = 120
	w.Objects = 16
	w.OpsPerLeaf = 2
	w.ReadFraction = 1 // pure-read trees: depth measures sibling concurrency
	w.ThinkNs = 300000
	return w
}

// AbortWorkload is one point of experiment E5: leaf subtransactions
// abort voluntarily with probability p. Transactions are classified whole
// (reader/updater) and updaters touch one object per leaf, so the abort
// axis is not confounded by upgrade-deadlock churn.
func AbortWorkload(seed int64, p float64) Workload {
	w := baseWorkload(seed)
	w.AbortProb = p
	w.Depth = 2
	w.ReadTxFraction = 0.5
	w.WriterOps = 1
	w.Objects = 16
	w.ThinkNs = 50000
	return w
}

// ReadFractionSweep is experiment E3: throughput of R/W locking vs the
// exclusive and serial baselines as the share of read-only transactions
// rises. The paper's claim: R/W Locking allows more concurrency than a
// serial system, and read locks are exactly what separates Moss' algorithm
// from exclusive locking (with no read accesses they coincide).
func ReadFractionSweep(seed int64, fractions []float64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, f := range fractions {
		w := ReadFractionWorkload(seed, f)
		rw, err := Run(w)
		if err != nil {
			return nil, err
		}
		we := w
		we.Exclusive = true
		excl, err := Run(we)
		if err != nil {
			return nil, err
		}
		serial, err := Run(w.Serial())
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			Label:   fmt.Sprintf("read=%.0f%%", f*100),
			RW:      rw,
			Excl:    excl,
			Serial:  serial,
			HasBase: true,
		})
	}
	return out, nil
}

// DepthSweep is experiment E4: nesting depth 0..maxDepth, R/W locking vs
// serial execution of the same trees.
func DepthSweep(seed int64, maxDepth int) ([]SweepPoint, error) {
	var out []SweepPoint
	for d := 0; d <= maxDepth; d++ {
		w := DepthWorkload(seed, d)
		rw, err := Run(w)
		if err != nil {
			return nil, err
		}
		serial, err := Run(w.Serial())
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			Label:   fmt.Sprintf("depth=%d", d),
			RW:      rw,
			Serial:  serial,
			HasBase: true,
		})
	}
	return out, nil
}

// AbortSweep is experiment E5: throughput and recovery as the voluntary
// abort rate of subtransactions rises.
func AbortSweep(seed int64, probs []float64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, p := range probs {
		rw, err := Run(AbortWorkload(seed, p))
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{Label: fmt.Sprintf("abort=%.0f%%", p*100), RW: rw})
	}
	return out, nil
}

// InheritanceSweep is experiment E7: the same leaf work structured flat
// (depth 0, all accesses in the top-level transaction) versus nested
// (depth d, lock inheritance at each commit), isolating the cost of
// passing locks up the tree.
func InheritanceSweep(seed int64, depths []int) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, d := range depths {
		w := baseWorkload(seed)
		w.Depth = d
		w.Fanout = 1 // single chain: same work, deeper inheritance
		w.Transactions = 300
		w.ThinkNs = 0
		rw, err := Run(w)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{Label: fmt.Sprintf("chain=%d", d), RW: rw})
	}
	return out, nil
}

// WriteTable renders sweep points as an aligned table.
func WriteTable(w io.Writer, title string, points []SweepPoint) error {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "%s\n", title)
	fmt.Fprintf(tw, "point\trw tx/s\texcl tx/s\tserial tx/s\trw/serial\tops/s\tp50\tp95\twaits\tdeadlocks\tretries\taborted\n")
	for _, p := range points {
		excl, serial, ratio := "-", "-", "-"
		if p.HasBase {
			if p.Excl.Duration > 0 {
				excl = fmt.Sprintf("%.0f", p.Excl.Throughput())
			}
			if p.Serial.Duration > 0 {
				serial = fmt.Sprintf("%.0f", p.Serial.Throughput())
				if p.Serial.Throughput() > 0 {
					ratio = fmt.Sprintf("%.2fx", p.RW.Throughput()/p.Serial.Throughput())
				}
			}
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%s\t%s\t%s\t%.0f\t%s\t%s\t%d\t%d\t%d\t%d\n",
			p.Label, p.RW.Throughput(), excl, serial, ratio, p.RW.OpsPerSec(),
			p.RW.Percentile(50).Round(10*time.Microsecond),
			p.RW.Percentile(95).Round(10*time.Microsecond),
			p.RW.Stats.Waits, p.RW.Stats.Deadlocks, p.RW.Retried, p.RW.Aborted)
	}
	return tw.Flush()
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the three cut points of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the driver uses; ok is false with fewer than two values.
func quartiles(v []float64) (q [3]float64, ok bool) {
	if len(v) < 2 {
		return q, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q, true
}

// spread is the distance between the first and third quartile as a
// share of the median: the run-to-run noise a bound must exceed.
func spread(v []float64) (float64, bool) {
	q, ok := quartiles(v)
	if !ok || q[1] == 0 {
		return 0, false
	}
	return (q[2] - q[0]) / math.Abs(q[1]), true
}

// readSet reads an -out file into workload → metric → values, untraced
// runs only: end-to-end metrics come from nowhere else.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace || rec.Result == nil {
			continue
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s: a run of %s (seed %d) failed its output checks", path, rec.Workload, rec.Seed)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = make(map[string][]float64)
		}
		for _, metrics := range []map[string]metricValue{rec.Result.Metrics, rec.Unbounded} {
			for name, mv := range metrics {
				set[rec.Workload][name] = append(set[rec.Workload][name], mv.Value)
			}
		}
	}
	return set, sc.Err()
}

// compareFiles prints one row per workload × metric of the untraced
// runs: both medians, the change of B relative to A, the bound, each
// side's spread and a verdict. worse: B's median is worse than A's by
// more than the bound. unresolved: a side's own spread is wider than the
// bound, so the comparison cannot tell. The timings BENCHMARK.json does
// not bound are listed too, without a verdict: their spreads are what a
// claimed gain has to beat. It returns 0 only if every bounded row is ok.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]map[string]map[string][]float64
	for i, path := range []string{pathA, pathB} {
		set, err := readSet(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sets[i] = set
	}
	return compareSets(spec, sets[0], sets[1], stdout)
}

func compareSets(spec *benchSpec, a, b map[string]map[string][]float64, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tdelta vs A\tbound\tspread A\tspread B\tn\tverdict\t")
	status := 0
	for _, w := range spec.Workloads {
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			bounded := m.Bound > 0
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				if bounded {
					fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.0f%%\t-\t-\t%d/%d\tmissing\t\n", w.Name, m.Name, 100*m.Bound, len(va), len(vb))
					status = 1
				}
				continue
			}
			ma, mb := median(va), median(vb)
			delta := per(mb-ma, math.Abs(ma))
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			sa, okA := spread(va)
			sb, okB := spread(vb)
			verdict, bound := "-", "-"
			if bounded {
				verdict, bound = "ok", fmt.Sprintf("%.0f%%", 100*m.Bound)
				switch {
				case okA && sa > m.Bound, okB && sb > m.Bound:
					verdict = "unresolved"
					status = 1
				case worse > m.Bound:
					verdict = "worse"
					status = 1
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%% of %.4g\t%s\t%s\t%s\t%d/%d\t%s\t\n",
				w.Name, m.Name, ma, mb, 100*delta, ma, bound, pct(sa, okA), pct(sb, okB), len(va), len(vb), verdict)
		}
	}
	tw.Flush()
	return status
}

func pct(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}

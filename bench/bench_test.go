package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload for 300 ms at a sixteenth of its object
// count, untraced and traced, and holds the output to BENCHMARK.json:
// each declared metric once, under its declared unit, every output check
// passing, and a result line of exactly the agreed shape.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is not of the agreed form", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
	}

	for _, sw := range spec.Workloads {
		w := findWorkload(sw.Name)
		if w == nil {
			t.Fatalf("spec workload %s is not implemented", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			opts := runOpts{seed: 7, window: 300 * time.Millisecond, trace: traced, scale: 16, outDir: dir}
			var out bytes.Buffer
			res, _, err := measure(spec, w, opts, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v failed its output checks:\n%s", w.name, traced, out.String())
			}
			if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}

			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: %s is %v", w.name, m.Name, got.Value)
				}
				if n := strings.Count(out.String(), "\n  "+m.Name+" "); n != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", w.name, traced, m.Name, n)
				}
			}

			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not a JSON object: %v", w.name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: result line has keys %v", w.name, last)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, "trace."+w.name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestQuartiles pins the quartile method to the one the driver uses
// (Python's statistics.quantiles, n=4, exclusive).
func TestQuartiles(t *testing.T) {
	q, ok := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; !ok || q != want {
		t.Errorf("quartiles(1..10) = %v, %v; want %v", q, ok, want)
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be defined")
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		Workloads: []specLoad{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "steady", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "slower", Unit: "us", Better: "lower", Bound: 0.1},
			{Name: "noisy", Unit: "us", Better: "lower", Bound: 0.1},
		},
	}
	set := func(steady, slower float64, noisy []float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"w": {
			"steady": {steady, steady * 1.01, steady * 0.99, steady},
			"slower": {slower, slower * 1.01, slower * 0.99, slower},
			"noisy":  noisy,
		}}
	}
	var out bytes.Buffer
	status := compareSets(spec,
		set(100, 10, []float64{10, 10, 10, 10}),
		set(95, 12, []float64{5, 10, 15, 20}), &out)
	if status == 0 {
		t.Error("a worse and an unresolved metric should fail the comparison")
	}
	for metric, verdict := range map[string]string{"steady": "ok", "slower": "worse", "noisy": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) && strings.Contains(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s should be reported %s:\n%s", metric, verdict, out.String())
		}
	}
}

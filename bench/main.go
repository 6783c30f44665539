// Command bench is the repository's end-to-end benchmark: one process
// hosts the system under test and two closed-loop clients, runs one of
// four workloads for a fixed window, checks the outputs, and prints
// named end-to-end metrics (untraced) or per-layer metrics (traced).
// BENCHMARK.json at the root of the repository declares the workloads
// and metrics; README.md in this directory explains them.
//
//	bash bench/run.sh --workload net_small --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1 --out A.jsonl        # every workload, both passes
//	bash bench/run.sh --compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// The program runs from the root of a checkout.
const (
	specPath = "BENCHMARK.json"
	outDir   = "bench/out" // span files
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run; all runs every workload, untraced then traced")
		seed    = fs.Int64("seed", 1, "seeds every generator: client w draws from seed*1000+w")
		seconds = fs.Float64("seconds", 0, "measured window in seconds; 0 means run_seconds of the spec")
		trace   = fs.Int("trace", 0, "1 records spans and prints the per-layer metrics, 0 prints the end-to-end ones")
		outFile = fs.String("out", "", "append each run as one JSON line to this file (the input of -compare)")
		compare = fs.Bool("compare", false, "compare two -out files: bench -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	opts := runOpts{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		scale:  1,
		outDir: outDir,
	}

	type pass struct {
		w     *workload
		trace bool
	}
	var passes []pass
	if *name == "all" {
		for _, w := range workloads {
			passes = append(passes, pass{w, false}, pass{w, true})
		}
	} else if w := findWorkload(*name); w != nil {
		passes = append(passes, pass{w, *trace != 0})
	} else {
		fmt.Fprintf(stderr, "bench: no workload %q\n", *name)
		return 2
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	mach := describeMachine(outDir)
	mb, _ := json.Marshal(mach)
	fmt.Fprintf(stdout, "machine %s\n", mb)
	status := 0
	for _, p := range passes {
		opts.trace = p.trace
		res, extra, err := measure(spec, p.w, opts, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p.w.name, err)
			return 1
		}
		if !res.Correct {
			status = 1
		}
		if *outFile != "" {
			if err := appendRecord(*outFile, record{
				Workload: p.w.name, Seed: *seed, Trace: p.trace, Seconds: *seconds, Machine: mach, Result: res, Unbounded: extra,
			}); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	return status
}

// measure performs one run and prints it: a header, one line per metric
// and, last, the result object the driver reads. extra holds what an
// untraced run measured beyond the bounded end-to-end metrics.
func measure(spec *benchSpec, w *workload, opts runOpts, stdout io.Writer) (res *result, extra map[string]metricValue, err error) {
	r, err := execute(w, opts)
	if err != nil {
		return nil, nil, err
	}
	t := r.totals
	var values map[string]float64
	if opts.trace {
		values = r.perLayer(t)
	} else {
		values = r.endToEnd(t)
	}
	metrics, extra, err := spec.emit(opts.trace, values)
	if err != nil {
		return nil, nil, err
	}
	res = &result{Correct: len(r.failures) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}

	fmt.Fprintf(stdout, "workload %s seed %d trace %v window %.2fs clients %d: %d committed, %d scans, %d failed of %d attempted (latency n=%d)\n",
		w.name, opts.seed, opts.trace, t.elapsed.Seconds(), numClients, t.commits, t.scans, t.failed, t.attempted, len(t.commitLat))
	rates := append([]float64(nil), t.sliceRate...)
	sort.Float64s(rates)
	fmt.Fprintf(stdout, "  %d slices, commits/s: min %.0f, median %.0f, max %.0f, whole window %.0f\n",
		len(rates), rates[0], median(rates), rates[len(rates)-1], float64(t.commits)/t.elapsed.Seconds())
	printMetrics(stdout, metrics, "")
	printMetrics(stdout, extra, "  (not bounded)")
	for _, f := range r.failures {
		fmt.Fprintf(stdout, "  CHECK FAILED: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, extra, nil
}

func printMetrics(stdout io.Writer, metrics map[string]metricValue, note string) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "  %-34s %16.4f %s%s\n", name, metrics[name].Value, metrics[name].Unit, note)
	}
}

// record is one line of an -out file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Machine  machine `json:"machine"`
	Result   *result `json:"result"`
	// Unbounded holds what an untraced run measured beside the bounded
	// metrics: the timings -compare reports without a verdict.
	Unbounded map[string]metricValue `json:"unbounded,omitempty"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

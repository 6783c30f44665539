// Command txdst runs the deterministic whole-system simulator
// (internal/dst): one seed drives the workload plan, the fault plan and
// virtual time, and every run ends in the S9 machine check. Any failure
// prints a one-line reproduction and exits nonzero.
//
// Usage:
//
//	txdst -list
//	txdst -scenario hotspot -seed 7 [-log] [-scale F]
//	txdst -corpus internal/dst/corpus.txt
//	txdst -mine 2 > internal/dst/corpus.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"nestedtx/internal/dst"
)

func main() {
	scenario := flag.String("scenario", "", "scenario name (see -list)")
	seed := flag.Int64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list scenarios and exit")
	corpus := flag.String("corpus", "", "run every '<scenario> <seed> [scale]' line of this file")
	mine := flag.Int("mine", 0, "emit a corpus: N passing seeds per scenario, written to stdout")
	scale := flag.Float64("scale", 1, "scale the scenario's universe and transaction count")
	dumpLog := flag.Bool("log", false, "print the deterministic event log after the run")
	flag.Parse()

	switch {
	case *list:
		for _, s := range dst.Scenarios() {
			fmt.Printf("%-24s %s\n", s.Name, s.Doc)
		}
	case *corpus != "":
		os.Exit(runCorpus(*corpus))
	case *mine > 0:
		os.Exit(runMine(*mine, *scale))
	case *scenario != "":
		os.Exit(runOne(*scenario, *seed, *scale, *dumpLog))
	default:
		fmt.Fprintln(os.Stderr, "txdst: need -scenario, -corpus, -mine or -list")
		flag.Usage()
		os.Exit(2)
	}
}

// runOne executes a single simulation and reports its verdict on one
// line; failures carry the reproduction command.
func runOne(name string, seed int64, scale float64, dumpLog bool) int {
	scn, ok := dst.Lookup(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "txdst: unknown scenario %q (try -list)\n", name)
		return 2
	}
	if scale != 1 {
		scn = scn.Scale(scale)
	}
	start := time.Now()
	res := dst.New(scn, seed).Run()
	elapsed := time.Since(start).Round(time.Millisecond)
	// With -log, stdout carries exactly the deterministic event log (so
	// two invocations of the same seed can be compared with cmp); the
	// status line moves to stderr because it reports wall time and race
	// outcomes, which legitimately differ across runs.
	status := os.Stdout
	if dumpLog {
		os.Stdout.Write(res.Log)
		status = os.Stderr
	}
	if !res.Pass() {
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", name, res.Err)
		return 1
	}
	fmt.Fprintf(status, "ok   %-24s seed=%-4d committed=%d aborted=%d scans=%d post=%d/%d (%s)\n",
		name, seed, res.Stats.Committed, res.Stats.Aborted, res.Stats.Scans,
		res.Post.Committed, res.Post.Scans, elapsed)
	return 0
}

// runCorpus replays every seed in the corpus file. Lines are
// "<scenario> <seed> [scale]"; '#' starts a comment. All cells run even
// after a failure so one bad seed doesn't hide another.
func runCorpus(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "txdst:", err)
		return 2
	}
	defer f.Close()
	rc := 0
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || len(fields) > 3 {
			fmt.Fprintf(os.Stderr, "txdst: %s:%d: want '<scenario> <seed> [scale]'\n", path, line)
			return 2
		}
		seed, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "txdst: %s:%d: bad seed %q\n", path, line, fields[1])
			return 2
		}
		scale := 1.0
		if len(fields) == 3 {
			if scale, err = strconv.ParseFloat(fields[2], 64); err != nil || scale <= 0 {
				fmt.Fprintf(os.Stderr, "txdst: %s:%d: bad scale %q\n", path, line, fields[2])
				return 2
			}
		}
		if runOne(fields[0], seed, scale, false) != 0 {
			rc = 1
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "txdst:", err)
		return 2
	}
	return rc
}

// runMine regenerates the corpus: the first n passing seeds per
// scenario, one line each, written to stdout in corpus format. A
// failing seed is a real finding — it is reported with its reproduction
// line and mining exits nonzero.
func runMine(n int, scale float64) int {
	fmt.Printf("# seed corpus mined by txdst -mine %d; lines are '<scenario> <seed> [scale]'\n", n)
	for _, scn := range dst.Scenarios() {
		cell := scn
		if scale != 1 {
			cell = cell.Scale(scale)
		}
		found := 0
		for seed := int64(1); found < n; seed++ {
			res := dst.New(cell, seed).Run()
			if !res.Pass() {
				fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", scn.Name, res.Err)
				return 1
			}
			if scale != 1 {
				fmt.Printf("%s %d %g\n", scn.Name, seed, scale)
			} else {
				fmt.Printf("%s %d\n", scn.Name, seed)
			}
			fmt.Fprintf(os.Stderr, "mined %s seed=%d\n", scn.Name, seed)
			found++
		}
	}
	return 0
}

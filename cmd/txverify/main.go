// Command txverify is the driver for experiment E1 (Theorem 34) and E2
// (exclusive-locking degeneration): it generates seeded random R/W Locking
// systems, runs their concurrent schedules, and machine-checks each
// schedule for serial correctness at every non-orphan transaction.
//
// Usage:
//
//	txverify [-runs N] [-seed S] [-aborts P] [-exclusive] [-v]
//
// The exit status is non-zero if any schedule fails verification — which,
// if the theorem (and this implementation) is right, never happens.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/checker"
	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/system"
)

func main() {
	runs := flag.Int("runs", 200, "number of random systems to generate and check")
	seed := flag.Int64("seed", 1, "base seed")
	aborts := flag.Float64("aborts", 0.15, "scheduler abort probability")
	exclusive := flag.Bool("exclusive", false, "treat all accesses as writes (E2 baseline)")
	exhaustive := flag.Bool("exhaustive", false, "bounded model checking: enumerate ALL schedules of a tiny fixed system instead of sampling random ones")
	limit := flag.Int("limit", 100000, "schedule cap for -exhaustive")
	verbose := flag.Bool("v", false, "print every run")
	flag.Parse()

	mode := core.ReadWrite
	if *exclusive {
		mode = core.Exclusive
	}

	if *exhaustive {
		runExhaustive(mode, *limit)
		return
	}

	cfgs := []system.GenConfig{
		{Objects: 1, TopLevel: 2, MaxDepth: 1, MaxFanout: 2, ReadFraction: 0.5, SubProb: 0.5, SeqProb: 0.5},
		{Objects: 2, TopLevel: 3, MaxDepth: 2, MaxFanout: 3, ReadFraction: 0.3, SubProb: 0.4, SeqProb: 0.3},
		{Objects: 3, TopLevel: 3, MaxDepth: 2, MaxFanout: 3, ReadFraction: 0.7, SubProb: 0.5, SeqProb: 0.5},
		{Objects: 5, TopLevel: 4, MaxDepth: 3, MaxFanout: 3, ReadFraction: 0.5, SubProb: 0.5, SeqProb: 0.5},
		{Objects: 1, TopLevel: 3, MaxDepth: 2, MaxFanout: 2, ReadFraction: 0.0, SubProb: 0.5, SeqProb: 0.5},
		{Objects: 1, TopLevel: 3, MaxDepth: 2, MaxFanout: 2, ReadFraction: 1.0, SubProb: 0.5, SeqProb: 0.5},
	}

	var checked, events, txChecked, failures int
	start := time.Now()
	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		cfg := cfgs[i%len(cfgs)]
		rng := rand.New(rand.NewSource(s))
		sys, err := system.Generate(rng, cfg)
		if err != nil {
			fatal(err)
		}
		sched, objs, err := sys.RunConcurrentInspect(system.DriverConfig{Seed: s, AbortProb: *aborts, Mode: mode})
		if err != nil {
			fatal(err)
		}
		st := sys.SystemType()
		if err := event.WFConcurrent(sched, st); err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "run %d (seed %d): ill-formed schedule: %v\n", i, s, err)
			continue
		}
		for x, m := range objs {
			if err := m.CheckLockInvariants(); err != nil {
				failures++
				fmt.Fprintf(os.Stderr, "run %d (seed %d): object %s: %v\n", i, s, x, err)
			}
		}
		if err := checker.CheckAll(sched, st); err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "run %d (seed %d): %v\nschedule:\n%s\n", i, s, err, sched)
			continue
		}
		n := len(checker.Targets(sched, st))
		txChecked += n
		checked++
		events += len(sched)
		if *verbose {
			fmt.Printf("run %4d seed %6d: %4d events, %3d transactions verified\n", i, s, len(sched), n)
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E1: serial correctness of R/W Locking schedules (%s mode)\n", mode)
	fmt.Fprintf(tw, "schedules verified\t%d/%d\n", checked, *runs)
	fmt.Fprintf(tw, "transactions checked\t%d\n", txChecked)
	fmt.Fprintf(tw, "total events\t%d\n", events)
	fmt.Fprintf(tw, "failures\t%d\n", failures)
	fmt.Fprintf(tw, "elapsed\t%s\n", time.Since(start).Round(time.Millisecond))
	tw.Flush()
	if failures > 0 {
		os.Exit(1)
	}
}

// runExhaustive enumerates every schedule of a minimal writer/reader
// system (including scheduler-abort branching) and checks Theorem 34 on
// each — bounded model checking rather than random sampling.
func runExhaustive(mode core.Mode, limit int) {
	sys, err := system.New(
		map[string]adt.State{"X": adt.NewRegister(int64(0))},
		[]system.ChildSpec{
			system.Sub(&system.Program{Children: []system.ChildSpec{
				system.Access("X", adt.RegWrite{V: int64(1)}),
			}}),
			system.Sub(&system.Program{Children: []system.ChildSpec{
				system.Access("X", adt.RegRead{}),
			}}),
		},
	)
	if err != nil {
		fatal(err)
	}
	st := sys.SystemType()
	start := time.Now()
	events := 0
	visited, complete, err := sys.Enumerate(system.EnumConfig{IncludeAborts: true, Limit: limit, Mode: mode}, func(s event.Schedule) bool {
		events += len(s)
		if err := event.WFConcurrent(s, st); err != nil {
			fatal(fmt.Errorf("ill-formed enumerated schedule: %w\n%s", err, s))
		}
		if err := checker.CheckAll(s, st); err != nil {
			fatal(fmt.Errorf("theorem violated: %w\n%s", err, s))
		}
		return true
	})
	if err != nil {
		fatal(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E1 (bounded model checking, %s mode)\n", mode)
	fmt.Fprintf(tw, "schedules verified\t%d\n", visited)
	fmt.Fprintf(tw, "space exhausted\t%v\n", complete)
	fmt.Fprintf(tw, "total events\t%d\n", events)
	fmt.Fprintf(tw, "elapsed\t%s\n", time.Since(start).Round(time.Millisecond))
	tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "txverify:", err)
	os.Exit(1)
}

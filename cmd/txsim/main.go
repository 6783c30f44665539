// Command txsim runs the quantitative experiments (E3–E7, E9) of
// EXPERIMENTS.md against the nestedtx runtime and prints their tables.
// Every run ends with the lock-table invariant check; any checker or
// invariant failure exits nonzero and prints the reproducing invocation
// (experiment and seed) on one line.
//
// Usage:
//
//	txsim [-exp e3|e4|e5|e7|e9|all] [-seed S]
package main

import (
	"flag"
	"fmt"
	"os"

	"nestedtx/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e3, e4, e5, e7, e9 or all")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	run := func(name string) bool { return *exp == "all" || *exp == name }

	// fail reports a checker/invariant/runtime failure with a one-line
	// reproduction and exits nonzero.
	fail := func(name string, err error) {
		fmt.Fprintln(os.Stderr, "txsim:", err)
		fmt.Fprintf(os.Stderr, "reproduce: txsim -exp %s -seed %d\n", name, *seed)
		os.Exit(1)
	}

	emit := func(title string, points []sim.SweepPoint) {
		check(sim.WriteTable(os.Stdout, title, points))
		fmt.Println()
	}

	if run("e3") {
		points, err := sim.ReadFractionSweep(*seed, []float64{0, 0.25, 0.5, 0.75, 0.9, 1.0})
		if err != nil {
			fail("e3", err)
		}
		emit("E3: read-fraction sweep (R/W vs exclusive vs serial)", points)
	}
	if run("e4") {
		points, err := sim.DepthSweep(*seed, 4)
		if err != nil {
			fail("e4", err)
		}
		emit("E4: nesting-depth sweep (concurrent siblings vs serial)", points)
	}
	if run("e5") {
		points, err := sim.AbortSweep(*seed, []float64{0, 0.1, 0.25, 0.5})
		if err != nil {
			fail("e5", err)
		}
		emit("E5: abort-rate sweep (recovery under load)", points)
	}
	if run("e7") {
		points, err := sim.InheritanceSweep(*seed, []int{0, 1, 2, 4, 6})
		if err != nil {
			fail("e7", err)
		}
		emit("E7: lock-inheritance chain depth (same work, deeper commits)", points)
	}
	if run("e9") {
		points, err := sim.EngineSweep(*seed, []float64{0, 0.25, 0.5, 0.75, 0.9, 1.0})
		if err != nil {
			fail("e9", err)
		}
		check(sim.WriteEngineTable(os.Stdout, "E9: Moss R/W locking vs Reed-style MVTO (flat transactions)", points))
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "txsim:", err)
		os.Exit(1)
	}
}

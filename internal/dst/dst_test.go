package dst

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// small returns the scenario scaled down for test runtime; the full
// matrix runs at full size through the checked-in corpus (make sim).
func small(t *testing.T, name string, f float64) Scenario {
	t.Helper()
	scn, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %s missing", name)
	}
	return scn.Scale(f)
}

// TestDeterministicEventLog is the core determinism contract: two
// in-process runs with the same seed produce byte-identical event logs
// and the same verdict — across every environment (embedded, durable
// crash, replicated failover).
func TestDeterministicEventLog(t *testing.T) {
	for _, name := range []string{"hotspot", "crash-bitrot-checkpoint", "failover-chaos"} {
		name := name
		t.Run(name, func(t *testing.T) {
			scn := small(t, name, 0.2)
			a := New(scn, 99).Run()
			b := New(scn, 99).Run()
			if a.Pass() != b.Pass() {
				t.Fatalf("same seed, different verdicts: %v vs %v", a.Err, b.Err)
			}
			if !bytes.Equal(a.Log, b.Log) {
				t.Fatalf("same seed, different event logs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.Log, b.Log)
			}
			if !a.Pass() {
				t.Fatalf("seed 99 fails: %v", a.Err)
			}
			if len(a.Log) == 0 {
				t.Fatal("empty event log")
			}
			c := New(scn, 100).Run()
			if bytes.Equal(a.Log, c.Log) {
				t.Fatal("different seeds produced identical event logs")
			}
		})
	}
}

// TestReproLine: every result carries the one-line reproduction, scale
// included, and a failing run embeds it in the error text once, which is
// all txdst prints of it.
func TestReproLine(t *testing.T) {
	scn := small(t, "hotspot", 0.1)
	res := New(scn, 3).Run()
	want := fmt.Sprintf("txdst -scenario hotspot -seed %d -scale 0.1", 3)
	if res.Repro != want {
		t.Fatalf("repro = %q, want %q", res.Repro, want)
	}

	// An invalid scenario is the cheapest guaranteed failure; the error
	// path for execution failures shares the same wrapping.
	bad := scn
	bad.Mix = Mix{Zipf: 100, Bank: 100}
	r := New(bad, 3).Run()
	if r.Pass() {
		t.Fatal("invalid scenario passed")
	}
	if msg := r.Err.Error(); strings.Count(msg, "reproduce: ") != 1 || !strings.HasSuffix(msg, "\nreproduce: "+want) {
		t.Errorf("invalid scenario's error %q, want one reproduce: line, its last", r.Err)
	}
}

// TestScenarioMatrixScaled runs every scenario end-to-end at reduced
// size: plan, faults, execution, and the full S9 machine check (plus
// Recovery.Verify in the crash and failover cells).
func TestScenarioMatrixScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack simulation")
	}
	for _, scn := range Scenarios() {
		scn := scn
		t.Run(scn.Name, func(t *testing.T) {
			t.Parallel()
			f := 0.2
			if scn.Name == "bank-xl" {
				f = 0.02 // keep the 1M-account registration out of unit tests
			}
			res := New(scn.Scale(f), 1).Run()
			if !res.Pass() {
				t.Fatalf("%v", res.Err)
			}
			if res.Stats.Committed == 0 {
				t.Fatal("scenario committed nothing")
			}
			t.Logf("committed=%d aborted=%d scans=%d post={committed=%d scans=%d}",
				res.Stats.Committed, res.Stats.Aborted, res.Stats.Scans,
				res.Post.Committed, res.Post.Scans)
		})
	}
}

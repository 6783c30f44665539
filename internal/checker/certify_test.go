package checker

import (
	"math/rand"
	"strings"
	"testing"

	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/serial"
	"nestedtx/internal/system"
)

// generated builds the random system for seed: nested, two objects,
// mostly concurrent siblings.
func generated(t *testing.T, seed int64) *system.System {
	t.Helper()
	cfg := system.GenConfig{Objects: 2, TopLevel: 3, MaxDepth: 2, MaxFanout: 3, ReadFraction: 0.5, SubProb: 0.5, SeqProb: 0.3}
	sys, err := system.Generate(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// runInterleaved runs sys at seed, keeping it only if the schedule is
// interleaved (not its own serial witness) and aborts something.
func runInterleaved(t *testing.T, sys *system.System, seed int64) (event.Schedule, bool) {
	t.Helper()
	sched, err := sys.RunConcurrent(system.DriverConfig{Seed: seed, AbortProb: 0.15})
	if err != nil {
		t.Fatalf("seed %d: driver: %v", seed, err)
	}
	aborts := false
	for _, e := range sched {
		aborts = aborts || e.Kind == event.Abort
	}
	return sched, aborts && serial.Validate(withoutInforms(sched), sys.SystemType()) != nil
}

func withoutInforms(s event.Schedule) event.Schedule {
	return s.Filter(func(e event.Event) bool {
		return e.Kind != event.InformCommitAt && e.Kind != event.InformAbortAt
	})
}

// TestCertifyFallsBackOnInterleavedSchedules: a concurrent schedule that
// is not serial as it stands is certified by the per-transaction
// construction, aborts included.
func TestCertifyFallsBackOnInterleavedSchedules(t *testing.T) {
	n := 0
	for seed := int64(0); seed < 200 && n < 20; seed++ {
		sys := generated(t, seed)
		sched, ok := runInterleaved(t, sys, seed)
		if !ok {
			continue
		}
		n++
		if err := Certify(sched, sys.SystemType(), core.ReadWrite, nil); err != nil {
			t.Fatalf("seed %d: %v\nschedule:\n%s", seed, err, sched)
		}
	}
	if n < 20 {
		t.Fatalf("only %d interleaved schedules with aborts in 200 seeds", n)
	}
}

// TestCertifyRejectsWhatOnlyTheWitnessCatches: an interleaved schedule
// whose non-orphan parent is told a value its access never returned is
// still well-formed and still replays on every M(X) — the lock objects
// never see reports — so only a serial witness can reject it. Certify
// must, and must not mistake it for its own witness.
func TestCertifyRejectsWhatOnlyTheWitnessCatches(t *testing.T) {
	n := 0
	for seed := int64(0); seed < 200 && n < 10; seed++ {
		sys := generated(t, seed)
		sched, ok := runInterleaved(t, sys, seed)
		if !ok {
			continue
		}
		st := sys.SystemType()
		i := -1
		for j, e := range sched {
			if e.Kind == event.ReportCommit && st.IsAccess(e.T) && !sched.IsOrphan(e.T.Parent()) {
				i = j
				break
			}
		}
		if i < 0 {
			continue
		}
		n++
		bad := sched.Clone()
		bad[i].Value = "never returned"
		groups, names, err := event.WFConcurrentAtObjects(bad, st)
		if err != nil {
			t.Fatalf("seed %d: the tampered schedule should stay well-formed: %v", seed, err)
		}
		for _, x := range names {
			if _, err := core.Replay(st, x, core.ReadWrite, groups[x]); err != nil {
				t.Fatalf("seed %d: the tampered schedule should replay at M(%s): %v", seed, x, err)
			}
		}
		err = Certify(bad, st, core.ReadWrite, nil)
		if err == nil || !strings.Contains(err.Error(), "no serial rearrangement") {
			t.Fatalf("seed %d: tampered report certified or rejected elsewhere: %v", seed, err)
		}
	}
	if n < 10 {
		t.Fatalf("only %d tamperable interleaved schedules in 200 seeds", n)
	}
}

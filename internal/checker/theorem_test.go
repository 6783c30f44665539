package checker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/serial"
	"nestedtx/internal/system"
)

// TestTheorem34RandomSystems is the headline reproduction: for seeded
// random R/W Locking systems, every generated concurrent schedule is
// serially correct at every non-orphan transaction (experiment E1).
func TestTheorem34RandomSystems(t *testing.T) {
	cfgs := []system.GenConfig{
		{Objects: 1, TopLevel: 2, MaxDepth: 1, MaxFanout: 2, ReadFraction: 0.5, SubProb: 0.5, SeqProb: 0.5},
		{Objects: 2, TopLevel: 3, MaxDepth: 2, MaxFanout: 3, ReadFraction: 0.3, SubProb: 0.4, SeqProb: 0.3},
		{Objects: 3, TopLevel: 3, MaxDepth: 2, MaxFanout: 3, ReadFraction: 0.7, SubProb: 0.5, SeqProb: 0.5},
		{Objects: 5, TopLevel: 4, MaxDepth: 3, MaxFanout: 3, ReadFraction: 0.5, SubProb: 0.5, SeqProb: 0.5},
		{Objects: 1, TopLevel: 4, MaxDepth: 2, MaxFanout: 2, ReadFraction: 0.0, SubProb: 0.5, SeqProb: 0.5}, // all writes
		{Objects: 1, TopLevel: 4, MaxDepth: 2, MaxFanout: 2, ReadFraction: 1.0, SubProb: 0.5, SeqProb: 0.5}, // all reads
	}
	aborts := []float64{0, 0.1, 0.3}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for ci, cfg := range cfgs {
		for _, ap := range aborts {
			for s := 0; s < seeds; s++ {
				seed := int64(ci*1000 + int(ap*100)*10 + s)
				rng := rand.New(rand.NewSource(seed))
				sys, err := system.Generate(rng, cfg)
				if err != nil {
					t.Fatalf("cfg %d: %v", ci, err)
				}
				sched, objs, err := sys.RunConcurrentInspect(system.DriverConfig{Seed: seed, AbortProb: ap})
				if err != nil {
					t.Fatalf("cfg %d seed %d: driver: %v", ci, seed, err)
				}
				st := sys.SystemType()
				if err := event.WFConcurrent(sched, st); err != nil {
					t.Fatalf("cfg %d seed %d: ill-formed: %v", ci, seed, err)
				}
				for x, m := range objs {
					if err := m.CheckLockInvariants(); err != nil {
						t.Fatalf("cfg %d seed %d: object %s: %v", ci, seed, x, err)
					}
				}
				if err := CheckAll(sched, st); err != nil {
					t.Fatalf("cfg %d seed %d (abort %.2f): %v\nschedule:\n%s", ci, seed, ap, err, sched)
				}
			}
		}
	}
}

// TestTheorem34ExclusiveMode re-runs a slice of the matrix in exclusive
// mode: with all accesses treated as writes, schedules must still be
// serially correct (and are exactly the [LM] exclusive-locking system).
func TestTheorem34ExclusiveMode(t *testing.T) {
	cfg := system.GenConfig{Objects: 2, TopLevel: 3, MaxDepth: 2, MaxFanout: 3, ReadFraction: 0.5, SubProb: 0.5, SeqProb: 0.5}
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for s := 0; s < seeds; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		sys, err := system.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := sys.RunConcurrent(system.DriverConfig{Seed: int64(s), AbortProb: 0.1, Mode: core.Exclusive})
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		if err := CheckAll(sched, sys.SystemType()); err != nil {
			t.Fatalf("seed %d: %v\nschedule:\n%s", s, err, sched)
		}
	}
}

// TestSerialSchedulesAreTriviallyCorrect: schedules produced by the serial
// driver must validate against the serial specification and be serially
// correct for every transaction with the identity rearrangement.
func TestSerialSchedulesAreTriviallyCorrect(t *testing.T) {
	cfg := system.DefaultGenConfig()
	for s := 0; s < 10; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		sys, err := system.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := sys.RunSerial(int64(s), 0.1)
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		if err := event.WFSerial(sched, sys.SystemType()); err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		if err := serial.Validate(sched, sys.SystemType()); err != nil {
			t.Fatalf("seed %d: serial driver produced a non-serial schedule: %v", s, err)
		}
	}
}

// TestTheorem34OnEveryPrefix checks every prefix of seeded concurrent
// schedules. Only a prefix has live transactions with visible descendants
// — complete schedules and quiescent recordings have none — so this is
// the test that exercises the witness's "live child last" placement.
func TestTheorem34OnEveryPrefix(t *testing.T) {
	cfg := system.DefaultGenConfig()
	seeds := int64(100)
	if testing.Short() {
		seeds = 20
	}
	for _, mode := range []core.Mode{core.ReadWrite, core.Exclusive} {
		for seed := int64(1); seed <= seeds; seed++ {
			sys, err := system.Generate(rand.New(rand.NewSource(seed)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := sys.RunConcurrent(system.DriverConfig{Seed: seed, AbortProb: 0.1, Mode: mode})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			st := sys.SystemType()
			for cut := 1; cut <= len(sched); cut++ {
				if err := CheckAll(sched[:cut], st); err != nil {
					t.Fatalf("mode %v seed %d cut %d: %v\nprefix:\n%s", mode, seed, cut, err, sched[:cut])
				}
			}
		}
	}
}

// pinnedWitnesses is the SHA-256 over the witness of every target of the
// schedules TestWitnessesArePinned generates. A change to the
// construction that alters any witness, even to another valid one,
// changes it.
const pinnedWitnesses = "c735fe0afefa59b399172f145f1fe307656e7b8772a86dbe7a37e0cf7aeb2146"

// TestWitnessesArePinned hashes Check's serial witness for every target,
// in Targets order, of seeded concurrent schedules in both lock modes.
func TestWitnessesArePinned(t *testing.T) {
	h := sha256.New()
	for _, mode := range []core.Mode{core.ReadWrite, core.Exclusive} {
		for seed := int64(1); seed <= 50; seed++ {
			sys, err := system.Generate(rand.New(rand.NewSource(seed)), system.DefaultGenConfig())
			if err != nil {
				t.Fatal(err)
			}
			sched, err := sys.RunConcurrent(system.DriverConfig{Seed: seed, AbortProb: 0.1, Mode: mode})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			st := sys.SystemType()
			for _, u := range Targets(sched, st) {
				w, err := Check(sched, st, u)
				if err != nil {
					t.Fatalf("mode %v seed %d: %v", mode, seed, err)
				}
				fmt.Fprintln(h, w.Serial)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedWitnesses {
		t.Fatalf("witness hash %s, pinned %s", got, pinnedWitnesses)
	}
}

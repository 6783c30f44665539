package system

import (
	"math/rand"
	"testing"

	"nestedtx/internal/adt"
	"nestedtx/internal/core"
	"nestedtx/internal/event"
	"nestedtx/internal/tree"
)

func simpleSystem(t testing.TB) *System {
	t.Helper()
	sys, err := New(
		map[string]adt.State{"X": adt.NewRegister(int64(0))},
		[]ChildSpec{
			Sub(&Program{
				Sequential: true,
				Children: []ChildSpec{
					Access("X", adt.RegWrite{V: int64(1)}),
					Access("X", adt.RegRead{}),
				},
			}),
			Sub(&Program{
				Children: []ChildSpec{
					Access("X", adt.RegRead{}),
				},
			}),
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBuildRegistersAccesses(t *testing.T) {
	sys := simpleSystem(t)
	st := sys.SystemType()
	if !st.IsAccess("T0.0.0") || !st.IsAccess("T0.0.1") || !st.IsAccess("T0.1.0") {
		t.Fatal("accesses not registered")
	}
	if !st.IsWriteAccess("T0.0.0") || !st.IsReadAccess("T0.0.1") {
		t.Fatal("classification wrong")
	}
	if _, ok := sys.Program("T0.0"); !ok {
		t.Fatal("program missing")
	}
	if _, ok := sys.Program("T0.0.0"); ok {
		t.Fatal("access must not have a program")
	}
	txs := sys.Transactions()
	if len(txs) != 3 { // T0, T0.0, T0.1
		t.Fatalf("transactions = %v", txs)
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	if _, err := New(map[string]adt.State{}, []ChildSpec{{}}); err == nil {
		t.Fatal("empty child spec must fail")
	}
	if _, err := New(map[string]adt.State{}, []ChildSpec{Access("nope", adt.RegRead{})}); err == nil {
		t.Fatal("access to unknown object must fail")
	}
	bad := ChildSpec{Sub: &Program{}, Object: "X", Op: adt.RegRead{}}
	if _, err := New(map[string]adt.State{"X": adt.NewRegister(int64(0))}, []ChildSpec{bad}); err == nil {
		t.Fatal("both sub and access must fail")
	}
}

func TestDriverDeterminism(t *testing.T) {
	sys := simpleSystem(t)
	a, err := sys.RunConcurrent(DriverConfig{Seed: 11, AbortProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.RunConcurrent(DriverConfig{Seed: 11, AbortProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed must reproduce the same schedule")
	}
	c, err := sys.RunConcurrent(DriverConfig{Seed: 12, AbortProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Log("different seeds coincided (possible but suspicious for this system)")
	}
}

func TestDriverSchedulesAreWellFormed(t *testing.T) {
	sys := simpleSystem(t)
	for seed := int64(0); seed < 30; seed++ {
		sched, err := sys.RunConcurrent(DriverConfig{Seed: seed, AbortProb: 0.25})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := event.WFConcurrent(sched, sys.SystemType()); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, sched)
		}
	}
}

func TestDriverCompletesAllWorkWithoutAborts(t *testing.T) {
	sys := simpleSystem(t)
	runs := []struct {
		name string
		run  func() (event.Schedule, error)
	}{
		{"concurrent", func() (event.Schedule, error) { return sys.RunConcurrent(DriverConfig{Seed: 5}) }},
		{"serial", func() (event.Schedule, error) { return sys.RunSerial(5, 0) }},
	}
	for _, r := range runs {
		sched, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		// With AbortProb 0 and no deadlock in this system, every
		// transaction commits: both top-levels and their three accesses.
		for _, tl := range []tree.TID{"T0.0", "T0.1", "T0.0.0", "T0.0.1", "T0.1.0"} {
			found := false
			for _, e := range sched {
				if e.Kind == event.Commit && e.T == tl {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: %s did not commit:\n%s", r.name, tl, sched)
			}
		}
	}
}

func TestSerialDriverRunsSequentially(t *testing.T) {
	sys := simpleSystem(t)
	sched, err := sys.RunSerial(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// No two siblings live at once: check Lemma 6 on every prefix.
	txs := []tree.TID{"T0.0", "T0.1", "T0.0.0", "T0.0.1", "T0.1.0"}
	for n := 0; n <= len(sched); n++ {
		prefix := sched[:n]
		var live []tree.TID
		for _, u := range txs {
			if prefix.IsLive(u) {
				live = append(live, u)
			}
		}
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if !a.IsAncestorOf(b) && !b.IsAncestorOf(a) {
					t.Fatalf("prefix %d: unrelated %s, %s live in serial schedule", n, a, b)
				}
			}
		}
	}
}

func TestGenerateRespectsConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := GenConfig{Objects: 4, TopLevel: 3, MaxDepth: 2, MaxFanout: 3, ReadFraction: 0.5, SubProb: 0.5, SeqProb: 0.5}
	sys, err := Generate(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.SystemType()
	if len(st.Objects()) != 4 {
		t.Fatalf("objects = %d", len(st.Objects()))
	}
	for _, a := range st.Accesses() {
		if a.Level() < 2 {
			t.Fatalf("access %s above top-level", a)
		}
		if a.Level() > 2+cfg.MaxDepth+1 {
			t.Fatalf("access %s too deep", a)
		}
	}
	if _, err := Generate(rng, GenConfig{}); err == nil {
		t.Fatal("zero config must be rejected")
	}
}

func TestExclusiveModeSerializesReads(t *testing.T) {
	// Two concurrent top-level reads of the same object: in exclusive
	// mode the driver still completes (one waits for the other's commit).
	sys, err := New(
		map[string]adt.State{"X": adt.NewRegister(int64(0))},
		[]ChildSpec{
			Sub(&Program{Children: []ChildSpec{Access("X", adt.RegRead{})}}),
			Sub(&Program{Children: []ChildSpec{Access("X", adt.RegRead{})}}),
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sys.RunConcurrent(DriverConfig{Seed: 1, Mode: core.Exclusive})
	if err != nil {
		t.Fatal(err)
	}
	commits := 0
	for _, e := range sched {
		if e.Kind == event.Commit && (e.T == "T0.0" || e.T == "T0.1") {
			commits++
		}
	}
	if commits != 2 {
		t.Fatalf("both top-levels should commit, got %d", commits)
	}
}

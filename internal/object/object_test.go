package object

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nestedtx/internal/adt"
	"nestedtx/internal/event"
	"nestedtx/internal/tree"
)

// regType builds a register object X with nW write accesses and nR read
// accesses, all children of T0.0.
func regType(t testing.TB, nW, nR int) (*event.SystemType, []tree.TID, []tree.TID) {
	t.Helper()
	st := event.NewSystemType()
	st.DefineObject("X", adt.NewRegister(int64(0)))
	var ws, rs []tree.TID
	parent := tree.TID("T0.0")
	for i := 0; i < nW; i++ {
		id := parent.Child(i)
		st.MustDefineAccess(id, "X", adt.RegWrite{V: int64(i + 1)})
		ws = append(ws, id)
	}
	for i := 0; i < nR; i++ {
		id := parent.Child(nW + i)
		st.MustDefineAccess(id, "X", adt.RegRead{})
		rs = append(rs, id)
	}
	return st, ws, rs
}

func TestBasicLifecycle(t *testing.T) {
	st, ws, _ := regType(t, 2, 0)
	b, err := New(st, "X")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Create(ws[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.Create(ws[0]); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if len(b.EnabledAccesses()) != 1 {
		t.Fatal("one pending access expected")
	}
	e, err := b.Respond(ws[0])
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != event.RequestCommit || e.Value != int64(1) {
		t.Fatalf("response %s", e)
	}
	if _, err := b.Respond(ws[0]); err == nil {
		t.Fatal("double respond must fail")
	}
	if _, err := b.Respond(ws[1]); err == nil {
		t.Fatal("respond without create must fail")
	}
	if b.State().(adt.Register).V != int64(1) {
		t.Fatal("state not advanced")
	}
	if b.Name() != "X" {
		t.Fatal("name")
	}
}

func TestReplayValueChecking(t *testing.T) {
	st, ws, _ := regType(t, 1, 0)
	good := event.Schedule{
		{Kind: event.Create, T: ws[0]},
		{Kind: event.RequestCommit, T: ws[0], Value: int64(1)},
	}
	if !IsSchedule(st, "X", good) {
		t.Fatal("good schedule rejected")
	}
	bad := event.Schedule{
		{Kind: event.Create, T: ws[0]},
		{Kind: event.RequestCommit, T: ws[0], Value: int64(999)},
	}
	if IsSchedule(st, "X", bad) {
		t.Fatal("wrong value accepted")
	}
}

// probesFor builds probe continuations from the accesses not yet used.
func probesFor(st *event.SystemType, ids []tree.TID) []event.Schedule {
	var probes []event.Schedule
	for _, id := range ids {
		a, _ := st.AccessInfo(id)
		_, v := a.Op.Apply(adt.NewRegister(int64(0)))
		_ = v
		probes = append(probes, event.Schedule{
			{Kind: event.Create, T: id},
			{Kind: event.RequestCommit, T: id, Value: int64(0)},
		})
		probes = append(probes, event.Schedule{
			{Kind: event.Create, T: id},
		})
	}
	return probes
}

// TestSemanticCondition3 — REQUEST_COMMITs of read accesses are
// transparent: appending a read response leaves the object equieffective.
func TestSemanticCondition3(t *testing.T) {
	st, ws, rs := regType(t, 3, 3)
	alpha := event.Schedule{
		{Kind: event.Create, T: ws[0]},
		{Kind: event.RequestCommit, T: ws[0], Value: int64(1)},
		{Kind: event.Create, T: rs[0]},
		{Kind: event.RequestCommit, T: rs[0], Value: int64(1)},
	}
	// Probes read and write through the remaining accesses.
	var probes []event.Schedule
	probes = append(probes, event.Schedule{
		{Kind: event.Create, T: rs[1]},
		{Kind: event.RequestCommit, T: rs[1], Value: int64(1)},
	})
	probes = append(probes, event.Schedule{
		{Kind: event.Create, T: ws[1]},
		{Kind: event.RequestCommit, T: ws[1], Value: int64(2)},
		{Kind: event.Create, T: rs[2]},
		{Kind: event.RequestCommit, T: rs[2], Value: int64(2)},
	})
	if !Transparent(st, "X", alpha, probes) {
		t.Fatal("read REQUEST_COMMIT must be transparent")
	}
	// A write REQUEST_COMMIT is NOT transparent: later reads see it.
	alphaW := event.Schedule{
		{Kind: event.Create, T: rs[0]},
		{Kind: event.RequestCommit, T: rs[0], Value: int64(0)},
		{Kind: event.Create, T: ws[0]},
		{Kind: event.RequestCommit, T: ws[0], Value: int64(1)},
	}
	probesW := []event.Schedule{{
		{Kind: event.Create, T: rs[1]},
		{Kind: event.RequestCommit, T: rs[1], Value: int64(0)}, // pre-write value
	}}
	if Transparent(st, "X", alphaW, probesW) {
		t.Fatal("write REQUEST_COMMIT must not be transparent (reads can detect it)")
	}
}

// TestSemanticConditions1and2 — CREATE operations are transparent, and
// when an access was created is not detectable.
func TestSemanticConditions1and2(t *testing.T) {
	st, ws, rs := regType(t, 2, 2)
	// Condition 1: appending CREATE(T) is equieffective to not appending.
	alpha := event.Schedule{
		{Kind: event.Create, T: ws[0]},
		{Kind: event.RequestCommit, T: ws[0], Value: int64(1)},
		{Kind: event.Create, T: rs[0]},
	}
	probes := []event.Schedule{{
		{Kind: event.Create, T: rs[1]},
		{Kind: event.RequestCommit, T: rs[1], Value: int64(1)},
	}}
	if !Transparent(st, "X", alpha, probes) {
		t.Fatal("CREATE must be transparent")
	}
	// Condition 2: α1 CREATE(T) α2 equieffective to α1 α2 CREATE(T).
	early := event.Schedule{
		{Kind: event.Create, T: rs[0]},
		{Kind: event.Create, T: ws[0]},
		{Kind: event.RequestCommit, T: ws[0], Value: int64(1)},
	}
	late := event.Schedule{
		{Kind: event.Create, T: ws[0]},
		{Kind: event.RequestCommit, T: ws[0], Value: int64(1)},
		{Kind: event.Create, T: rs[0]},
	}
	probes2 := []event.Schedule{
		{{Kind: event.RequestCommit, T: rs[0], Value: int64(1)}},
		{{Kind: event.Create, T: rs[1]}, {Kind: event.RequestCommit, T: rs[1], Value: int64(1)}},
	}
	if !Equieffective(st, "X", early, late, probes2) {
		t.Fatal("CREATE placement must be undetectable")
	}
}

// TestLemma20 — write-equal well-formed schedules are equieffective
// (property-tested over random interleavings of a register object).
func TestLemma20WriteEqualImpliesEquieffective(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	st, ws, rs := regType(t, 4, 4)
	f := func() bool {
		// Build a random schedule: writes in fixed order, reads sprinkled.
		var alpha event.Schedule
		reads := append([]tree.TID(nil), rs[:2]...)
		writes := append([]tree.TID(nil), ws[:2]...)
		cur := int64(0)
		for len(reads) > 0 || len(writes) > 0 {
			if len(writes) == 0 || (len(reads) > 0 && r.Intn(2) == 0) {
				id := reads[0]
				reads = reads[1:]
				alpha = append(alpha,
					event.Event{Kind: event.Create, T: id},
					event.Event{Kind: event.RequestCommit, T: id, Value: cur})
			} else {
				id := writes[0]
				writes = writes[1:]
				a, _ := st.AccessInfo(id)
				_, v := a.Op.Apply(adt.NewRegister(cur))
				cur = v.(int64)
				alpha = append(alpha,
					event.Event{Kind: event.Create, T: id},
					event.Event{Kind: event.RequestCommit, T: id, Value: v})
			}
		}
		// beta: same writes, reads removed entirely (write-equal).
		beta := alpha.Filter(func(e event.Event) bool {
			return st.IsWriteAccess(e.T)
		})
		if !event.WriteEqual(st, alpha, beta) {
			return false
		}
		probes := []event.Schedule{
			{{Kind: event.Create, T: rs[2]}, {Kind: event.RequestCommit, T: rs[2], Value: cur}},
			{{Kind: event.Create, T: ws[2]}, {Kind: event.RequestCommit, T: ws[2], Value: int64(3)}},
			{{Kind: event.Create, T: rs[3]}, {Kind: event.RequestCommit, T: rs[3], Value: cur + 100}}, // wrong value probe
		}
		return Equieffective(st, "X", alpha, beta, probes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEquieffectiveDetectsDifference(t *testing.T) {
	st, ws, rs := regType(t, 2, 1)
	a := event.Schedule{
		{Kind: event.Create, T: ws[0]},
		{Kind: event.RequestCommit, T: ws[0], Value: int64(1)},
	}
	b := event.Schedule{
		{Kind: event.Create, T: ws[1]},
		{Kind: event.RequestCommit, T: ws[1], Value: int64(2)},
	}
	probes := []event.Schedule{{
		{Kind: event.Create, T: rs[0]},
		{Kind: event.RequestCommit, T: rs[0], Value: int64(1)},
	}}
	if Equieffective(st, "X", a, b, probes) {
		t.Fatal("different final values must be detected")
	}
}

func TestNewUnknownObject(t *testing.T) {
	st := event.NewSystemType()
	if _, err := New(st, "nope"); err == nil {
		t.Fatal("unknown object must fail")
	}
	if _, err := Replay(st, "nope", nil); err == nil {
		t.Fatal("replay of unknown object must fail")
	}
}

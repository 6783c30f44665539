package adt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestReadOnlyOpsLeaveStateUnchanged is the property test behind the
// lock-mode contract (and now the snapshot read path): for EVERY op the
// package defines, ReadOnly() == true implies Apply returns the state
// it was given, unchanged and deterministically; and a write op that
// names a ReadBack returns what that read, a zero-size read-only op,
// returns from the state the write leaves. The op inventory below
// must list every exported Op; the completeness check at the bottom
// fails the test if a newly added op type is missing.
func TestReadOnlyOpsLeaveStateUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	randValues := func() []Value {
		return []Value{int64(rng.Intn(100)), "s" + fmt.Sprint(rng.Intn(10)), rng.Intn(2) == 0}
	}
	// State generators, one batch per data type, randomized per seed.
	states := func() map[string][]State {
		vs := randValues()
		return map[string][]State{
			"Register": {Register{}, NewRegister(vs[0]), NewRegister(vs[1])},
			"Counter":  {Counter{}, Counter{N: int64(rng.Intn(1000) - 500)}},
			"IntSet":   {NewIntSet(), NewIntSet(1), NewIntSet(int64(rng.Intn(5)), int64(rng.Intn(5)), 7)},
			"Account":  {Account{}, Account{Balance: int64(rng.Intn(1000))}},
			"Table":    {NewTable(nil), NewTable(map[string]Value{"k": vs[0], "j": vs[2]})},
			"Queue":    {NewQueue(), NewQueue(vs...)},
		}
	}
	// Every op in the package, keyed by the data type it applies to.
	ops := func() map[string][]Op {
		vs := randValues()
		k := int64(rng.Intn(8))
		return map[string][]Op{
			"Register": {RegRead{}, RegWrite{V: vs[0]}},
			"Counter":  {CtrGet{}, CtrAdd{Delta: k}, CtrTake{N: k}},
			"IntSet":   {SetInsert{X: k}, SetRemove{X: k}, SetContains{X: k}, SetSize{}},
			"Account":  {AcctBalance{}, AcctDeposit{Amount: k}, AcctWithdraw{Amount: k}},
			"Table":    {TblGet{K: "k"}, TblPut{K: "k", V: vs[1]}, TblDelete{K: "k"}},
			"Queue":    {QEnqueue{V: vs[0]}, QDequeue{}, QPeek{}, QLen{}},
		}
	}

	covered := make(map[reflect.Type]bool)
	for seed := 0; seed < 200; seed++ {
		st := states()
		for typ, typOps := range ops() {
			for _, op := range typOps {
				covered[reflect.TypeOf(op)] = true
				for _, s := range st[typ] {
					next, v := op.Apply(s)
					if rb, ok := op.(ReadBacker); ok {
						r := rb.ReadBack()
						if op.ReadOnly() || !r.ReadOnly() || reflect.TypeOf(r).Size() != 0 {
							t.Fatalf("%T names %T as its read-back: a write must name a zero-size read", op, r)
						}
						if _, rv := r.Apply(next); !reflect.DeepEqual(v, rv) {
							t.Fatalf("%v on %v returned %v, but its read-back %v reads %v", op, s, v, r, rv)
						}
					}
					if !op.ReadOnly() {
						continue
					}
					if !reflect.DeepEqual(next, s) {
						t.Fatalf("%T claims ReadOnly but changed %v to %v", op, s, next)
					}
					_, v2 := op.Apply(s)
					if !reflect.DeepEqual(v, v2) {
						t.Fatalf("%T is not deterministic: %v then %v on %v", op, v, v2, s)
					}
				}
			}
		}
	}

	// Completeness: every op the codec can round-trip must appear in the
	// inventory above, so a newly added op cannot silently dodge the
	// read-only property.
	for _, op := range allOps() {
		if !covered[reflect.TypeOf(op)] {
			t.Errorf("op %T is not covered by the read-only property test inventory", op)
		}
	}
}

// allOps is one instance of every operation the package exports — the
// codec's EncodeOp type switch is the authoritative list; a codec test
// failure plus this list going stale is the worst case for a missed op.
func allOps() []Op {
	return []Op{
		RegRead{}, RegWrite{},
		CtrGet{}, CtrAdd{}, CtrTake{},
		AcctBalance{}, AcctDeposit{}, AcctWithdraw{},
		SetInsert{}, SetRemove{}, SetContains{}, SetSize{},
		TblGet{}, TblPut{}, TblDelete{},
		QEnqueue{}, QDequeue{}, QPeek{}, QLen{},
	}
}

package tree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChildParent(t *testing.T) {
	c := Root.Child(3)
	if c != "T0.3" {
		t.Fatalf("Child = %q, want T0.3", c)
	}
	if c.Parent() != Root {
		t.Fatalf("Parent(%q) = %q, want %q", c, c.Parent(), Root)
	}
	gc := c.Child(0).Child(12)
	if gc != "T0.3.0.12" {
		t.Fatalf("grandchild = %q", gc)
	}
	if gc.Parent() != "T0.3.0" {
		t.Fatalf("Parent(%q) = %q", gc, gc.Parent())
	}
	if Root.Parent() != "" {
		t.Fatalf("Parent(root) = %q, want empty", Root.Parent())
	}
}

func TestValid(t *testing.T) {
	valid := []TID{Root, "T0.0", "T0.1.2.3", "T0.10.200"}
	for _, v := range valid {
		if !v.Valid() {
			t.Errorf("Valid(%q) = false, want true", v)
		}
	}
	invalid := []TID{"", "T1", "T0.", "T0..1", "T0.a", ".T0", "T0.1.", "X0.1"}
	for _, v := range invalid {
		if v.Valid() {
			t.Errorf("Valid(%q) = true, want false", v)
		}
	}
}

func TestLevel(t *testing.T) {
	if Root.Level() != 0 {
		t.Errorf("Level(root) = %d", Root.Level())
	}
	if TID("T0.1.2.3").Level() != 3 {
		t.Errorf("Level(T0.1.2.3) = %d", TID("T0.1.2.3").Level())
	}
}

func TestAncestry(t *testing.T) {
	a := TID("T0.1")
	b := TID("T0.1.2")
	c := TID("T0.12") // shares string prefix "T0.1" but is NOT a descendant of T0.1
	if !a.IsAncestorOf(b) {
		t.Error("T0.1 should be ancestor of T0.1.2")
	}
	if !a.IsAncestorOf(a) {
		t.Error("a transaction is its own ancestor")
	}
	if a.IsProperAncestorOf(a) {
		t.Error("a transaction is not its own proper ancestor")
	}
	if a.IsAncestorOf(c) {
		t.Error("T0.1 must not be ancestor of T0.12 (prefix trap)")
	}
	if !b.IsDescendantOf(Root) {
		t.Error("everything descends from the root")
	}
	if !b.IsProperDescendantOf(a) {
		t.Error("T0.1.2 is a proper descendant of T0.1")
	}
}

func TestSiblings(t *testing.T) {
	if !AreSiblings("T0.1", "T0.2") {
		t.Error("T0.1 and T0.2 are siblings")
	}
	if AreSiblings("T0.1", "T0.1") {
		t.Error("a transaction is not its own sibling")
	}
	if AreSiblings("T0.1", "T0.1.2") {
		t.Error("parent/child are not siblings")
	}
	if AreSiblings(Root, Root) {
		t.Error("root has no siblings")
	}
}

func TestLCA(t *testing.T) {
	cases := []struct{ a, b, want TID }{
		{"T0.1.2", "T0.1.3", "T0.1"},
		{"T0.1", "T0.1.3", "T0.1"},
		{"T0.1.3", "T0.1", "T0.1"},
		{"T0.1", "T0.2", "T0"},
		{"T0", "T0.5.5.5", "T0"},
		{"T0.12.1", "T0.1.1", "T0"}, // prefix trap again
		{"T0.3", "T0.3", "T0.3"},
	}
	for _, c := range cases {
		if got := LCA(c.a, c.b); got != c.want {
			t.Errorf("LCA(%q,%q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

func TestChildToward(t *testing.T) {
	if got := Root.ChildToward("T0.4.2.1"); got != "T0.4" {
		t.Errorf("ChildToward = %q, want T0.4", got)
	}
	if got := TID("T0.4").ChildToward("T0.4.2.1"); got != "T0.4.2" {
		t.Errorf("ChildToward = %q, want T0.4.2", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("ChildToward of non-descendant should panic")
		}
	}()
	Root.ChildToward(Root)
}

func TestAncestors(t *testing.T) {
	got := TID("T0.1.2").Ancestors()
	want := []TID{"T0", "T0.1", "T0.1.2"}
	if len(got) != len(want) {
		t.Fatalf("Ancestors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ancestors = %v, want %v", got, want)
		}
	}
	pa := TID("T0.1.2").ProperAncestors()
	if len(pa) != 2 || pa[0] != "T0" || pa[1] != "T0.1" {
		t.Fatalf("ProperAncestors = %v", pa)
	}
	if len(Root.ProperAncestors()) != 0 {
		t.Fatal("root has no proper ancestors")
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet("T0.1", "T0.2")
	if !s.Has("T0.1") || s.Has("T0.3") || s.Len() != 2 {
		t.Fatalf("set basics broken: %v", s)
	}
	c := s.Clone()
	c.Add("T0.3")
	if s.Has("T0.3") {
		t.Error("Clone must not alias")
	}
	s.Remove("T0.1")
	if s.Has("T0.1") || s.Len() != 1 {
		t.Error("Remove failed")
	}
	if len(c.Members()) != 3 {
		t.Error("Members wrong length")
	}
}

func TestSetRemoveDescendantsOf(t *testing.T) {
	s := NewSet("T0.1", "T0.1.2", "T0.1.2.3", "T0.2")
	s.RemoveDescendantsOf("T0.1")
	if s.Len() != 1 || !s.Has("T0.2") {
		t.Fatalf("RemoveDescendantsOf left %v", s.Members())
	}
}

func TestSetLeastAndChain(t *testing.T) {
	s := NewSet("T0", "T0.1", "T0.1.2")
	least, ok := s.Least()
	if !ok || least != "T0.1.2" {
		t.Fatalf("Least = %q, %v", least, ok)
	}
	if !s.IsChain() {
		t.Error("ancestor chain should be a chain")
	}
	s.Add("T0.2")
	if s.IsChain() {
		t.Error("set with siblings is not a chain")
	}
	if _, ok := NewSet().Least(); ok {
		t.Error("Least of empty set must report !ok")
	}
}

// randomTID builds an arbitrary valid TID of bounded depth for property
// tests.
func randomTID(r *rand.Rand) TID {
	t := Root
	depth := r.Intn(5)
	for i := 0; i < depth; i++ {
		t = t.Child(r.Intn(4))
	}
	return t
}

func TestQuickLCAProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomTID(r), randomTID(r)
		l := LCA(a, b)
		// The LCA is an ancestor of both, and no child of it toward either
		// side is an ancestor of both.
		if !l.IsAncestorOf(a) || !l.IsAncestorOf(b) {
			return false
		}
		if l != a && l != b {
			ca := l.ChildToward(a)
			if ca.IsAncestorOf(b) {
				return false
			}
		}
		return LCA(a, b) == LCA(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAncestryTransitivity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a := randomTID(r)
		b := a
		for i := 0; i < r.Intn(3); i++ {
			b = b.Child(r.Intn(3))
		}
		c := b
		for i := 0; i < r.Intn(3); i++ {
			c = c.Child(r.Intn(3))
		}
		return a.IsAncestorOf(b) && b.IsAncestorOf(c) && a.IsAncestorOf(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b TID
		want int
	}{
		{"T0", "T0", 0},
		{"T0", "T0.0", -1},
		{"T0.0", "T0", 1},
		{"T0.1", "T0.2", -1},
		{"T0.9", "T0.10", -1}, // numeric, not lexicographic
		{"T0.10", "T0.9", 1},
		{"T0.2.9", "T0.2.10", -1},
		{"T0.10", "T0.10", 0},
		{"T0.9.5", "T0.10", -1}, // first differing component decides
		{"T0.1.100", "T0.1.99", 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		// Antisymmetry.
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%q, %q) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestComparePropertiesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randTID := func() TID {
		id := Root
		for d := rng.Intn(4); d > 0; d-- {
			id = id.Child(rng.Intn(20))
		}
		return id
	}
	// Compare is consistent with ancestry: a proper ancestor sorts first.
	if err := quick.Check(func() bool {
		a := randTID()
		b := a.Child(rng.Intn(20))
		return Compare(a, b) < 0 && Compare(b, a) > 0
	}, nil); err != nil {
		t.Error(err)
	}
	// Equality is exactly Compare == 0.
	if err := quick.Check(func() bool {
		a, b := randTID(), randTID()
		return (Compare(a, b) == 0) == (a == b)
	}, nil); err != nil {
		t.Error(err)
	}
}

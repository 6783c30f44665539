package tree

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzTIDOps: arbitrary strings must never panic the name algebra, and
// for valid names the LCA/ancestry laws must hold.
func FuzzTIDOps(f *testing.F) {
	f.Add("T0", "T0.1")
	f.Add("T0.1.2", "T0.12")
	f.Add("", "banana")
	f.Add("T0.0.0.0.0", "T0.0")
	f.Fuzz(func(t *testing.T, a, b string) {
		ta, tb := TID(a), TID(b)
		_ = ta.Valid()
		_ = ta.Parent()
		_ = ta.Level()
		_ = ta.IsAncestorOf(tb)
		if !ta.Valid() || !tb.Valid() {
			return
		}
		l := LCA(ta, tb)
		if !l.Valid() {
			t.Fatalf("LCA(%q,%q) = %q invalid", a, b, l)
		}
		if !l.IsAncestorOf(ta) || !l.IsAncestorOf(tb) {
			t.Fatalf("LCA(%q,%q) = %q not a common ancestor", a, b, l)
		}
		if LCA(ta, tb) != LCA(tb, ta) {
			t.Fatal("LCA not symmetric")
		}
		if ta.IsAncestorOf(tb) && tb.IsAncestorOf(ta) && ta != tb {
			t.Fatal("mutual ancestry of distinct names")
		}
		if l != ta && l != tb {
			ca := l.ChildToward(ta)
			if ca.IsAncestorOf(tb) {
				t.Fatalf("child of LCA toward %q is ancestor of %q", a, b)
			}
		}
	})
}

// The split/join implementations the substring ones replaced, kept as
// the reference the equivalence tests compare against.

func refComponents(t TID) []string { return strings.Split(string(t), sep) }

func refJoin(c []string) TID { return TID(strings.Join(c, sep)) }

func refIsAncestorOf(t, u TID) bool {
	return t == u || strings.HasPrefix(string(u), string(t)+sep)
}

func refAncestors(t TID) []TID {
	comps := refComponents(t)
	out := make([]TID, 0, len(comps))
	for i := 1; i <= len(comps); i++ {
		out = append(out, refJoin(comps[:i]))
	}
	return out
}

func refLCA(t, u TID) TID {
	if refIsAncestorOf(t, u) {
		return t
	}
	if refIsAncestorOf(u, t) {
		return u
	}
	tp, up := refComponents(t), refComponents(u)
	n := 0
	for n < len(tp) && n < len(up) && tp[n] == up[n] {
		n++
	}
	return refJoin(tp[:n])
}

func refChildToward(t, u TID) TID {
	rest := string(u)[len(t)+len(sep):]
	if i := strings.Index(rest, sep); i >= 0 {
		rest = rest[:i]
	}
	return TID(string(t) + sep + rest)
}

func refCompare(t, u TID) int {
	if t == u {
		return 0
	}
	tc, uc := refComponents(t), refComponents(u)
	for i := 0; i < len(tc) && i < len(uc); i++ {
		a, b := tc[i], uc[i]
		if a == b {
			continue
		}
		ai, aerr := strconv.Atoi(a)
		bi, berr := strconv.Atoi(b)
		switch {
		case aerr == nil && berr == nil && ai != bi:
			if ai < bi {
				return -1
			}
			return 1
		case a < b:
			return -1
		default:
			return 1
		}
	}
	if len(tc) < len(uc) {
		return -1
	}
	return 1
}

// checkAgainstReference fails t when any substring implementation
// disagrees with its split/join reference on the pair (a, b). Names need
// not be valid: malformed input must get the same answer too.
func checkAgainstReference(t *testing.T, a, b TID) {
	t.Helper()
	if got, want := a.IsAncestorOf(b), refIsAncestorOf(a, b); got != want {
		t.Fatalf("IsAncestorOf(%q,%q) = %v, reference %v", a, b, got, want)
	}
	if got, want := a.Ancestors(), refAncestors(a); !slices.Equal(got, want) {
		t.Fatalf("Ancestors(%q) = %q, reference %q", a, got, want)
	}
	if got, want := a.ProperAncestors(), refAncestors(a); !slices.Equal(got, want[:len(want)-1]) {
		t.Fatalf("ProperAncestors(%q) = %q, reference %q", a, got, want[:len(want)-1])
	}
	if got, want := LCA(a, b), refLCA(a, b); got != want {
		t.Fatalf("LCA(%q,%q) = %q, reference %q", a, b, got, want)
	}
	if got, want := Compare(a, b), refCompare(a, b); got != want {
		t.Fatalf("Compare(%q,%q) = %d, reference %d", a, b, got, want)
	}
	if a.IsProperAncestorOf(b) {
		if got, want := a.ChildToward(b), refChildToward(a, b); got != want {
			t.Fatalf("ChildToward(%q,%q) = %q, reference %q", a, b, got, want)
		}
	}
}

// FuzzSubstringOpsMatchReference: on arbitrary strings the substring
// implementations answer exactly what the split/join ones did.
func FuzzSubstringOpsMatchReference(f *testing.F) {
	f.Add("T0", "T0.1")
	f.Add("T0.9", "T0.10")
	f.Add("T0.1.2", "T0.12")
	f.Add("", "banana")
	f.Add("T0.", "T0..1")
	f.Add(".a", ".b")
	f.Add("T0.01", "T0.1")
	f.Add("T0.+1", "T0.1")
	f.Add("T0.x", "T0.9")
	f.Add("T0.99999999999999999999", "T0.1")
	f.Fuzz(func(t *testing.T, a, b string) {
		checkAgainstReference(t, TID(a), TID(b))
		checkAgainstReference(t, TID(b), TID(a))
	})
}

// TestSubstringOpsMatchReference drives the same comparison from a seeded
// generator (go test runs a fuzz target's seed corpus only): valid names
// with multi-digit siblings, related and unrelated pairs, and names
// damaged the ways a malformed name can be (empty or non-numeric
// components, signs, leading zeros, doubled and trailing separators).
func TestSubstringOpsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	name := func() TID {
		id := Root
		for d := r.Intn(6); d > 0; d-- {
			id = id.Child(r.Intn(120))
		}
		return id
	}
	damage := func(id TID) TID {
		s := string(id)
		junk := []string{"", ".", "..", "x", "-", "+3", "007", "T0", "99999999999999999999"}
		i := r.Intn(len(s) + 1)
		switch r.Intn(3) {
		case 0:
			return TID(s[:i] + junk[r.Intn(len(junk))] + s[i:])
		case 1:
			return TID(s[:i])
		default:
			return TID(s + sep + junk[r.Intn(len(junk))])
		}
	}
	for i := 0; i < 20000; i++ {
		a, b := name(), name()
		switch r.Intn(4) {
		case 0: // b below a
			b = a
			for d := r.Intn(3); d > 0; d-- {
				b = b.Child(r.Intn(120))
			}
		case 1:
			a = damage(a)
		case 2:
			a, b = damage(a), damage(b)
		}
		checkAgainstReference(t, a, b)
		checkAgainstReference(t, b, a)
	}
	// Compare's documented corners, against the reference and by value.
	for _, c := range []struct {
		a, b TID
		want int
	}{
		{"T0.9", "T0.10", -1},   // numeric, not lexicographic
		{"T0.x", "T0.y", -1},    // non-numeric: string order
		{"T0.10", "T0.9x", -1},  // one side non-numeric: string order
		{"T0.01", "T0.1", -1},   // equal numbers, different spelling: string order
		{"T0.1", "T0.1.0", -1},  // ancestor first
		{"T0.2.5", "T0.10", -1}, // first differing component decides
	} {
		if got := Compare(c.a, c.b); got != c.want || refCompare(c.a, c.b) != c.want {
			t.Errorf("Compare(%q,%q) = %d, reference %d, want %d", c.a, c.b, got, refCompare(c.a, c.b), c.want)
		}
	}
}

// TestNameAlgebraDoesNotAllocate: every ancestor of a name is a substring
// of it, so nothing on the lock manager's per-access path allocates.
func TestNameAlgebraDoesNotAllocate(t *testing.T) {
	top := Root.Child(1234)
	parent := top.Child(1).Child(0).Child(1)
	a, b := parent.Child(3), parent.Child(12)
	// Longer than the 32-byte buffer the compiler keeps on the stack for
	// short temporary strings.
	deep := a.Child(100000).Child(100000).Child(100000).Child(7)
	var sinkTID TID
	var sinkBool bool
	var sinkInt int
	for name, f := range map[string]func(){
		"Parent":       func() { sinkTID = deep.Parent() },
		"IsAncestorOf": func() { sinkBool = top.IsAncestorOf(deep) && !a.IsAncestorOf(b) },
		"ChildToward":  func() { sinkTID = Root.ChildToward(deep) },
		"LCA":          func() { sinkTID = LCA(deep, b) },
		"Compare":      func() { sinkInt = Compare(a, b) + Compare(deep, b) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
	_, _, _ = sinkTID, sinkBool, sinkInt
}

// TestChildIsOneAllocation: minting a name allocates the name and nothing
// else, however many digits its index has.
func TestChildIsOneAllocation(t *testing.T) {
	var sink TID
	if n := testing.AllocsPerRun(100, func() { sink = Root.Child(123456) }); n != 1 {
		t.Errorf("Child(123456): %v allocations per call, want 1", n)
	}
	_ = sink
}

// TestAppendChildIsChild: AppendChild writes exactly the bytes of Child
// after whatever dst holds, and into dst's own array when it has room.
func TestAppendChildIsChild(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 1000; n++ {
		p := Root
		for d := r.Intn(5); d > 0; d-- {
			p = p.Child(r.Intn(1000))
		}
		i := r.Intn(1 << 30)
		if n%10 == 0 {
			i = 1e12 + i
		}
		got := AppendChild([]byte("x"), p, i)
		if want := "x" + string(p.Child(i)); string(got) != want {
			t.Fatalf("AppendChild(%q, %d) = %q, want %q", p, i, got, want)
		}
	}
	var buf [16]byte
	if n := testing.AllocsPerRun(100, func() { _ = AppendChild(buf[:0], "T0.12", 345) }); n != 0 {
		t.Errorf("AppendChild into room: %v allocations per call, want 0", n)
	}
}

// Package tree implements the transaction naming tree of Fekete, Lynch,
// Merritt & Weihl (PODS 1987) — the "system type".
//
// The pattern of transaction nesting is a set of transaction names organized
// into a tree by parent(), with T0 as the root. The tree is, in general, an
// infinite structure with infinite branching; it is a predefined naming
// scheme for all transactions that might ever be invoked. Only some names
// take steps in any particular execution, so the tree here is lazy: a TID is
// just a path from the root, and ancestry is computed from the path.
//
// A transaction is its own ancestor and descendant (the paper's convention);
// Proper* variants exclude the transaction itself.
package tree

import (
	"strconv"
	"strings"
)

// TID names a transaction: the root is "T0", and the i'th child of a
// transaction T is named T + "." + i. The empty TID ("") is invalid.
//
// Using the path as the identity makes Parent, LCA and ancestry pure string
// computations, with no shared tree structure to synchronize on. Every
// ancestor of a TID is a prefix of that same string, so the functions that
// return ancestors return substrings and the ones that compare paths walk
// the components in place: none of them allocates, except Ancestors for
// its result slice.
type TID string

// Root is T0, the "mythical" root transaction modelling the external
// environment. The classical (unnested) transactions of concurrency-control
// theory are the children of Root.
const Root TID = "T0"

// sep separates path components within a TID.
const sep = "."

// Child returns the name of the i'th child of t, in one allocation.
func (t TID) Child(i int) TID {
	var d [20]byte
	return TID(string(t) + sep + string(strconv.AppendInt(d[:0], int64(i), 10)))
}

// AppendChild appends the name of the i'th child of t to dst and returns
// the extended slice: the bytes of t.Child(i), built in the caller's
// memory.
func AppendChild(dst []byte, t TID, i int) []byte {
	dst = append(dst, t...)
	dst = append(dst, sep...)
	return strconv.AppendInt(dst, int64(i), 10)
}

// IsRoot reports whether t is the root transaction T0.
func (t TID) IsRoot() bool { return t == Root }

// Valid reports whether t is a well-formed transaction name: "T0" followed
// by zero or more ".<number>" components.
func (t TID) Valid() bool {
	s := string(t)
	if !strings.HasPrefix(s, string(Root)) {
		return false
	}
	s = s[len(Root):]
	for s != "" {
		if !strings.HasPrefix(s, sep) {
			return false
		}
		s = s[len(sep):]
		i := 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		if i == 0 {
			return false
		}
		s = s[i:]
	}
	return true
}

// Parent returns the parent of t. Parent of the root is the empty TID.
func (t TID) Parent() TID {
	i := strings.LastIndex(string(t), sep)
	if i < 0 {
		return ""
	}
	return t[:i]
}

// Level returns the depth of t in the tree; the root has level 0.
func (t TID) Level() int {
	return strings.Count(string(t), sep)
}

// IsAncestorOf reports whether t is an ancestor of u (inclusive: every
// transaction is an ancestor of itself).
func (t TID) IsAncestorOf(u TID) bool {
	if len(u) <= len(t) {
		return t == u
	}
	return u[len(t)] == sep[0] && u[:len(t)] == t
}

// IsProperAncestorOf reports whether t is a strict ancestor of u.
func (t TID) IsProperAncestorOf(u TID) bool {
	return t != u && t.IsAncestorOf(u)
}

// IsDescendantOf reports whether t is a descendant of u (inclusive).
func (t TID) IsDescendantOf(u TID) bool { return u.IsAncestorOf(t) }

// IsProperDescendantOf reports whether t is a strict descendant of u.
func (t TID) IsProperDescendantOf(u TID) bool { return u.IsProperAncestorOf(t) }

// AreSiblings reports whether t and u are distinct children of the same
// parent.
func AreSiblings(t, u TID) bool {
	return t != u && !t.IsRoot() && !u.IsRoot() && t.Parent() == u.Parent()
}

// LCA returns the least common ancestor of t and u. Both must be valid
// names in the same tree (rooted at T0), so an LCA always exists.
func LCA(t, u TID) TID {
	if t.IsAncestorOf(u) {
		return t
	}
	if u.IsAncestorOf(t) {
		return u
	}
	// Neither path is a prefix of the other: the LCA ends at the last
	// separator both strings reach in step, before the first differing
	// component.
	end := 0
	for i := 0; i < len(t) && i < len(u) && t[i] == u[i]; i++ {
		if t[i] == sep[0] {
			end = i
		}
	}
	return t[:end]
}

// ChildToward returns the child of t on the path to descendant u.
// It panics if t is not a proper ancestor of u.
func (t TID) ChildToward(u TID) TID {
	if !t.IsProperAncestorOf(u) {
		panic("tree: ChildToward: " + string(t) + " is not a proper ancestor of " + string(u))
	}
	start := len(t) + len(sep)
	if i := strings.Index(string(u[start:]), sep); i >= 0 {
		return u[:start+i]
	}
	return u
}

// Ancestors returns t's ancestors from the root down to t itself
// (inclusive, in root-first order).
func (t TID) Ancestors() []TID {
	out := make([]TID, 0, t.Level()+1)
	for i := 0; i < len(t); i++ {
		if t[i] == sep[0] {
			out = append(out, t[:i])
		}
	}
	return append(out, t)
}

// ProperAncestors returns t's ancestors from the root down to t's parent,
// excluding t itself, in root-first order.
func (t TID) ProperAncestors() []TID {
	a := t.Ancestors()
	return a[:len(a)-1]
}

// Compare orders TIDs by their tree paths, comparing path components
// numerically: T0.9 < T0.10, and an ancestor sorts before its
// descendants. It returns -1, 0 or +1. Lexicographic comparison of the
// underlying strings is wrong for sibling order ("T0.9" > "T0.10"); use
// Compare wherever "latest sibling" or any other path order matters
// (e.g. deadlock-victim tie-breaking). Components that are not numbers
// (only possible for invalid names) fall back to string comparison.
func Compare(t, u TID) int {
	if t == u {
		return 0
	}
	ts, us := string(t), string(u)
	for {
		a, trest, tmore := strings.Cut(ts, sep)
		b, urest, umore := strings.Cut(us, sep)
		if a != b {
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
		// One path ran out of components first (not both: t != u), and
		// the shorter one is the ancestor.
		if !tmore {
			return -1
		}
		if !umore {
			return 1
		}
		ts, us = trest, urest
	}
}

// Set is a set of transaction IDs. The zero value is not usable; use
// NewSet. Set is not safe for concurrent use.
type Set map[TID]struct{}

// NewSet returns a set containing the given members.
func NewSet(ts ...TID) Set {
	s := make(Set, len(ts))
	for _, t := range ts {
		s.Add(t)
	}
	return s
}

// Add inserts t into the set.
func (s Set) Add(t TID) { s[t] = struct{}{} }

// Remove deletes t from the set.
func (s Set) Remove(t TID) { delete(s, t) }

// Has reports whether t is a member.
func (s Set) Has(t TID) bool { _, ok := s[t]; return ok }

// Len returns the number of members.
func (s Set) Len() int { return len(s) }

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for t := range s {
		c.Add(t)
	}
	return c
}

// Members returns the members in unspecified order.
func (s Set) Members() []TID {
	out := make([]TID, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	return out
}

// RemoveDescendantsOf deletes every member that is a descendant
// (inclusive) of t.
func (s Set) RemoveDescendantsOf(t TID) {
	for u := range s {
		if u.IsDescendantOf(t) {
			s.Remove(u)
		}
	}
}

// Least returns the least member under the ancestor order: the member that
// is a descendant of every other member. Moss' lockholder sets always form
// a chain (Lemma 21), so when the set is non-empty and a chain, Least is
// well defined; ok is false if the set is empty. If the set is not a chain
// Least returns the deepest member (maximum level), which coincides with
// the chain minimum whenever the invariant holds.
func (s Set) Least() (TID, bool) {
	var best TID
	found := false
	for u := range s {
		if !found || u.Level() > best.Level() {
			best, found = u, true
		}
	}
	return best, found
}

// IsChain reports whether the members are totally ordered by ancestry —
// the Lemma 21 invariant for write-lockholder sets.
func (s Set) IsChain() bool {
	ms := s.Members()
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			if !ms[i].IsAncestorOf(ms[j]) && !ms[j].IsAncestorOf(ms[i]) {
				return false
			}
		}
	}
	return true
}

package nestedtx

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nestedtx/internal/tree"
)

// growNamed runs a random tree of up to depth levels below tx — accesses,
// Sub children and Go children sharing one child numbering, some of the
// children failing — and calls note with every transaction's ID and the
// name tree.TID.Child builds for it independently.
func growNamed(r *rand.Rand, tx *Tx, want tree.TID, depth int, note func(id string, want tree.TID)) error {
	note(tx.ID(), want)
	if depth == 1 {
		return nil
	}
	for k, n := 0, 1+r.Intn(4); k < n; k++ {
		child := want.Child(k)
		fail := r.Intn(5) == 0
		body := func(c *Tx) error {
			if err := growNamed(r, c, child, depth-1, note); err != nil {
				return err
			}
			if fail {
				return errors.New("child fails")
			}
			return nil
		}
		var err error
		switch r.Intn(3) {
		case 0:
			_, err = tx.Do("c", CtrAdd{Delta: 1})
		case 1:
			err = tx.Sub(body)
		default:
			err = tx.Go(body).Wait()
		}
		if err != nil && !fail {
			return err
		}
	}
	return nil
}

// TestNamesOutliveTheirTx: a transaction's name lives inside its Tx, so a
// name held after the Tx returned is all that keeps the Tx alive. 10,000
// names of returned transactions — top-level, Sub and Go children, up to
// five levels deep, half minted from a top-level counter at 10¹² so that
// every name below the top level spills past the Tx's own array — survive
// two collections and a second 10,000 transactions reusing the freed
// memory, each still equal to the name tree.TID.Child builds and all
// distinct. Every Tx is a slot of a shared chunk, so a held name also
// keeps its chunk-mates' memory: names held from some slots of a chunk
// and not from its neighbours outlive their parent and every other
// sibling just the same.
func TestNamesOutliveTheirTx(t *testing.T) {
	type held struct {
		id   string
		want tree.TID
	}
	// run returns transactions until it has noted n names.
	run := func(seed int64, n int, note func(string, tree.TID)) {
		r := rand.New(rand.NewSource(seed))
		short, long := NewManager(), NewManager()
		long.nextTop.Store(1e12)
		for _, m := range []*Manager{short, long} {
			m.MustRegister("c", Counter{})
		}
		count := func(id string, want tree.TID) { n--; note(id, want) }
		for i := 0; n > 0; i++ {
			m := short
			if i%2 == 1 {
				m = long
			}
			want := tree.Root.Child(int(m.nextTop.Load()))
			if err := m.Run(func(tx *Tx) error { return growNamed(r, tx, want, 5, count) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	var names []held
	run(1, 10_000, func(id string, want tree.TID) { names = append(names, held{id, want}) })
	// some notes, of 500 transactions with five children each after an
	// access took index 0, only children 1, 2 and 5; the rest, and every
	// top-level Tx, become garbage beside them in their chunks. Its
	// managers start their top-level counters past run's, so that no name
	// repeats.
	some := func(m *Manager) {
		for i := 0; i < 500; i++ {
			want := tree.Root.Child(int(m.nextTop.Load()))
			err := m.Run(func(tx *Tx) error {
				if _, err := tx.Do("c", CtrAdd{Delta: 1}); err != nil {
					return err
				}
				for k := 1; k <= 5; k++ {
					note := func(c *Tx) error {
						if k != 3 && k != 4 {
							names = append(names, held{c.ID(), want.Child(k)})
						}
						return nil
					}
					if err := tx.Sub(note); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	short, long := NewManager(), NewManager()
	short.nextTop.Store(1e6)
	long.nextTop.Store(2e12)
	for _, m := range []*Manager{short, long} {
		m.MustRegister("c", Counter{})
		some(m)
	}
	spilled := 0
	for _, h := range names {
		if len(h.id) > 16 {
			spilled++
		}
	}
	if spilled == 0 || spilled == len(names) {
		t.Fatalf("%d of %d names past 16 B, want some of each", spilled, len(names))
	}
	runtime.GC()
	runtime.GC()
	run(2, 10_000, func(string, tree.TID) {})
	runtime.GC()
	seen := make(map[string]bool, len(names))
	for _, h := range names {
		if h.id != string(h.want) {
			t.Fatalf("held name %q, want %q", h.id, h.want)
		}
		if seen[h.id] {
			t.Fatalf("name %s held twice", h.id)
		}
		seen[h.id] = true
	}
	t.Logf("%d names held, %d of them past 16 B", len(names), spilled)
}

// TestConcurrentGoSiblingsNameThemselves: Go children started together,
// each starting Go children of its own, all mint the names Child builds,
// each once. No body Waits: each commit walks its Handle list while the
// children on it commit and unlink themselves. Run it under -race: every
// name is written into memory of its own Tx while its siblings mint
// theirs.
func TestConcurrentGoSiblingsNameThemselves(t *testing.T) {
	m := NewManager()
	m.nextTop.Store(1e12) // the grandchildren's names spill
	const fanout = 16
	var mu sync.Mutex
	seen := make(map[string]int)
	note := func(id string) {
		mu.Lock()
		seen[id]++
		mu.Unlock()
	}
	// spawn starts fanout Go children of tx, each running body, and
	// checks the name each Handle reports.
	spawn := func(tx *Tx, body func(*Tx) error) error {
		for i := 0; i < fanout; i++ {
			if h := tx.Go(body); h.ID() != string(tree.TID(tx.ID()).Child(i)) {
				return errors.New("handle named " + h.ID())
			}
		}
		return nil
	}
	var top tree.TID
	err := m.Run(func(tx *Tx) error {
		top = tree.TID(strings.Clone(tx.ID()))
		return spawn(tx, func(c *Tx) error {
			note(c.ID())
			return spawn(c, func(g *Tx) error { note(g.ID()); return nil })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fanout; i++ {
		c := top.Child(i)
		for j := -1; j < fanout; j++ {
			id := c
			if j >= 0 {
				id = c.Child(j)
			}
			if seen[string(id)] != 1 {
				t.Errorf("%s minted %d times, want 1", id, seen[string(id)])
			}
		}
	}
	if len(seen) != fanout*(fanout+1) {
		t.Errorf("%d names minted, want %d", len(seen), fanout*(fanout+1))
	}
}

// TestRecordingWithSpilledNamesVerifies: a recording manager takes the
// same path, and a schedule whose names are past 16 B — kept alive by the
// recorder through their Tx — is serially correct.
func TestRecordingWithSpilledNamesVerifies(t *testing.T) {
	m := NewManager(WithRecording())
	m.nextTop.Store(1e12)
	m.MustRegister("c", Counter{})
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		want := tree.Root.Child(int(m.nextTop.Load()))
		if err := m.Run(func(tx *Tx) error { return growNamed(r, tx, want, 4, func(string, tree.TID) {}) }); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSettleReportsTheOldestUnawaitedFailure: the Handle list keeps the
// Go children that failed, newest first, and drops the ones that
// committed; a child that fails after a younger sibling stays on it, and
// a commit waits for every child and reports the oldest failure the body
// never saw, however late it came.
func TestSettleReportsTheOldestUnawaitedFailure(t *testing.T) {
	m := NewManager()
	release, releaseLast := make(chan struct{}), make(chan struct{})
	tx := m.Begin()
	slow := tx.Go(func(*Tx) error { <-release; return errors.New("slow fails") })
	fast := tx.Go(func(*Tx) error { return errors.New("fast fails") })
	ok := tx.Go(func(*Tx) error { return nil })
	last := tx.Go(func(*Tx) error { <-releaseLast; return errors.New("last fails") })
	<-fast.done // unlike Wait, this leaves the failure unobserved
	<-ok.done
	list := func(when string) {
		s := tx.lock()
		defer s.mu.Unlock()
		if s.handles != last || last.older != fast || fast.older != slow || slow.older != nil {
			t.Errorf("%s: handle list starts at %p, want %p → the failed %p → %p", when, s.handles, last, fast, slow)
		}
	}
	list("before slow fails")
	close(release)
	<-slow.done
	list("after slow fails")
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(releaseLast)
	}()
	err := tx.Commit()
	if err == nil || !strings.Contains(err.Error(), slow.ID()+" failed: slow fails") {
		t.Fatalf("Commit = %v, want the failure of %s", err, slow.ID())
	}
	select {
	case <-last.done:
	default:
		t.Errorf("Commit returned before %s did", last.ID())
	}
}

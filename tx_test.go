package nestedtx

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestTxIDsAndDepth(t *testing.T) {
	m := NewManager()
	m.MustRegister("r", NewRegister(int64(0)))
	err := m.Run(func(tx *Tx) error {
		if tx.ID() != "T0.0" || tx.Depth() != 1 {
			t.Errorf("top-level ID=%s depth=%d", tx.ID(), tx.Depth())
		}
		return tx.Sub(func(sub *Tx) error {
			if sub.ID() != "T0.0.0" || sub.Depth() != 2 {
				t.Errorf("sub ID=%s depth=%d", sub.ID(), sub.Depth())
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// The second top-level gets the next index.
	_ = m.Run(func(tx *Tx) error {
		if tx.ID() != "T0.1" {
			t.Errorf("second top-level ID=%s", tx.ID())
		}
		return nil
	})
}

func TestUseAfterDone(t *testing.T) {
	m := NewManager()
	m.MustRegister("r", NewRegister(int64(0)))
	var leaked *Tx
	if err := m.Run(func(tx *Tx) error {
		leaked = tx
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := leaked.Do("r", RegRead{}); !errors.Is(err, ErrDone) {
		t.Fatalf("Do after done: %v, want ErrDone", err)
	}
	if err := leaked.Sub(func(*Tx) error { return nil }); !errors.Is(err, ErrDone) {
		t.Fatalf("Sub after done: %v, want ErrDone", err)
	}
	h := leaked.Go(func(*Tx) error { return nil })
	if err := h.Wait(); !errors.Is(err, ErrDone) {
		t.Fatalf("Go after done: %v, want ErrDone", err)
	}
}

// TestStaleTxNeverReachesTheNextOwner: a Tx kept past its return finds
// its state handed on — 1,000 transactions of the same manager ran since,
// some of them on that state — and every call on it is refused with
// ErrDone, its name unchanged. Calls on it from another goroutine, Cancel
// among them, made while the state's new owners run, abort none of them
// and apply nothing. Run it under -race.
func TestStaleTxNeverReachesTheNextOwner(t *testing.T) {
	m := NewManager()
	m.MustRegister("c", Counter{})
	var leaked *Tx
	var st *txState
	var id string
	reused, runs := false, 0
	body := func(tx *Tx) error {
		if tx.state() == st {
			reused = true
		}
		if _, err := tx.Do("c", CtrAdd{Delta: 1}); err != nil {
			return err
		}
		return tx.Sub(func(sub *Tx) error {
			_, err := sub.Do("c", CtrGet{})
			return err
		})
	}
	stale := func() {
		if _, err := leaked.Do("c", CtrAdd{Delta: 1}); !errors.Is(err, ErrDone) {
			t.Errorf("Do on a returned Tx: %v, want ErrDone", err)
		}
		if err := leaked.Sub(func(*Tx) error { return nil }); !errors.Is(err, ErrDone) {
			t.Errorf("Sub on a returned Tx: %v, want ErrDone", err)
		}
		if err := leaked.Go(func(*Tx) error { return nil }).Wait(); !errors.Is(err, ErrDone) {
			t.Errorf("Go on a returned Tx: %v, want ErrDone", err)
		}
		if c, err := leaked.Begin(); !errors.Is(err, ErrDone) {
			t.Errorf("Begin on a returned Tx: %v, %v, want ErrDone", c, err)
		}
		if err := leaked.Commit(); !errors.Is(err, ErrDone) {
			t.Errorf("Commit on a returned Tx: %v, want ErrDone", err)
		}
		leaked.Return(int64(-1))
		leaked.Abort()
		leaked.Cancel()
		if leaked.ID() != id {
			t.Errorf("a returned Tx's name changed from %s to %s", id, leaked.ID())
		}
	}
	// Under -race sync.Pool drops a quarter of the states put back, and a
	// dropped one is never reused: leak another until one is.
	for try := 0; !reused; try++ {
		if try == 20 {
			t.Fatal("no transaction reused the state of any of 20 returned ones")
		}
		if err := m.Run(func(tx *Tx) error {
			leaked, st = tx, tx.state()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for range 1000 {
			if err := m.Run(body); err != nil {
				t.Fatal(err)
			}
			runs++
		}
	}
	id = leaked.ID()
	stale()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				stale()
			}
		}
	}()
	for i := range 1000 {
		if err := m.Run(body); err != nil {
			t.Errorf("transaction %d beside calls on a returned Tx: %v", i, err)
		}
		runs++
	}
	close(stop)
	<-done
	if c, _ := m.State("c"); c != (Counter{N: int64(runs)}) {
		t.Errorf("c = %v, want %d", c, runs)
	}
}

// TestUnknownObject: an access naming an unregistered object fails with
// ErrUnknownObject — not ErrAborted, which would tell a server to answer
// "aborted" for what is the caller's mistake — and leaves the transaction
// usable, recording or not. The error names the access by the name a
// recording manager gives it, whether or not the manager records.
func TestUnknownObject(t *testing.T) {
	for name, opts := range map[string][]Option{"plain": nil, "recording": {WithRecording()}} {
		t.Run(name, func(t *testing.T) {
			m := NewManager(opts...)
			m.MustRegister("real", Counter{})
			err := m.Run(func(tx *Tx) error {
				_, err := tx.Do("ghost", RegRead{})
				if !errors.Is(err, ErrUnknownObject) {
					t.Errorf("access to unregistered object: %v, want ErrUnknownObject", err)
				}
				if errors.Is(err, ErrAborted) || errors.Is(err, ErrDeadlock) {
					t.Errorf("access to unregistered object reads as an abort: %v", err)
				}
				if err == nil || !strings.Contains(err.Error(), "access T0.0.0 on ghost") {
					t.Errorf("access to unregistered object: %v, want it named T0.0.0", err)
				}
				_, err = tx.Do("real", CtrAdd{Delta: 1})
				return err
			})
			if err != nil {
				t.Fatalf("transaction after a refused access: %v", err)
			}
			if st, _ := m.State("real"); st.(Counter).N != 1 {
				t.Fatalf("real = %+v, want 1", st)
			}
			if opts != nil {
				if err := m.Verify(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestNestedGoFanout(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("ctr", Counter{})
	err := m.Run(func(tx *Tx) error {
		var top []*Handle
		for i := 0; i < 3; i++ {
			top = append(top, tx.Go(func(mid *Tx) error {
				var inner []*Handle
				for j := 0; j < 3; j++ {
					inner = append(inner, mid.Go(func(leaf *Tx) error {
						_, err := leaf.Do("ctr", CtrAdd{Delta: 1})
						return err
					}))
				}
				for _, h := range inner {
					if err := h.Wait(); err != nil {
						return err
					}
				}
				return nil
			}))
		}
		for _, h := range top {
			if err := h.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.State("ctr")
	if s.(Counter).N != 9 {
		t.Fatalf("counter = %v, want 9", s)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMidLevelAbortRollsBackSubtreeOnly(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("ctr", Counter{})
	err := m.Run(func(tx *Tx) error {
		// Committed branch.
		if err := tx.Sub(func(a *Tx) error {
			_, err := a.Do("ctr", CtrAdd{Delta: 100})
			return err
		}); err != nil {
			return err
		}
		// Aborted branch with committed grandchildren: the grandchild
		// commits *to its parent*, whose abort undoes everything.
		aborted := tx.Sub(func(b *Tx) error {
			if err := b.Sub(func(c *Tx) error {
				_, err := c.Do("ctr", CtrAdd{Delta: 10})
				return err
			}); err != nil {
				return err
			}
			return errors.New("abort the middle")
		})
		if aborted == nil {
			return errors.New("middle branch should have aborted")
		}
		v, err := tx.Do("ctr", CtrGet{})
		if err != nil {
			return err
		}
		if v != int64(100) {
			return fmt.Errorf("parent sees %v, want 100 (grandchild's +10 rolled back)", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomRuntimeVerifies drives the real runtime with random nested
// shapes and machine-checks every run against Theorem 34 — the bridge
// between the goroutine implementation and the formal model.
func TestRandomRuntimeVerifies(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 3
	}
	for it := 0; it < iters; it++ {
		m := NewManager(WithRecording())
		for i := 0; i < 3; i++ {
			m.MustRegister(fmt.Sprintf("o%d", i), Counter{})
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for k := 0; k < 4; k++ {
					_ = m.RunRetry(30, func(tx *Tx) error {
						return randomBody(tx, rng.Int63(), 2)
					})
				}
			}(int64(it*10 + w))
		}
		wg.Wait()
		if err := m.Verify(); err != nil {
			t.Fatalf("iter %d: runtime schedule failed verification: %v", it, err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
	}
}

func randomBody(tx *Tx, seed int64, depth int) error {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		switch {
		case depth > 0 && rng.Intn(2) == 0:
			childSeed := rng.Int63()
			err := tx.Sub(func(sub *Tx) error {
				if err := randomBody(sub, childSeed, depth-1); err != nil {
					return err
				}
				if rng.Intn(5) == 0 {
					return errors.New("voluntary abort")
				}
				return nil
			})
			if err != nil && !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrAborted) {
				continue // tolerate the voluntary abort
			}
			if err != nil {
				return err
			}
		case rng.Intn(2) == 0:
			if _, err := tx.Do(fmt.Sprintf("o%d", rng.Intn(3)), CtrGet{}); err != nil {
				return err
			}
		default:
			if _, err := tx.Do(fmt.Sprintf("o%d", rng.Intn(3)), CtrAdd{Delta: 1}); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestExclusiveManagerStillCorrect(t *testing.T) {
	m := NewManager(WithRecording(), WithExclusiveLocking())
	m.MustRegister("ctr", Counter{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = m.RunRetry(20, func(tx *Tx) error {
				if _, err := tx.Do("ctr", CtrGet{}); err != nil {
					return err
				}
				_, err := tx.Do("ctr", CtrAdd{Delta: 1})
				return err
			})
		}()
	}
	wg.Wait()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	// With exclusive locking, get-then-add never deadlocks on upgrade
	// (the first access already took the exclusive lock), so all commit.
	s, _ := m.State("ctr")
	if s.(Counter).N != 6 {
		t.Fatalf("counter = %v, want 6", s)
	}
}

func TestVerifyRequiresRecording(t *testing.T) {
	m := NewManager()
	if err := m.Verify(); err == nil {
		t.Fatal("Verify without recording must error")
	}
}

func TestWriteScheduleOutput(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("r", NewRegister(int64(0)))
	_ = m.Run(func(tx *Tx) error {
		_, err := tx.Do("r", RegWrite{V: int64(1)})
		return err
	})
	var sb syncBuilder
	if err := m.WriteSchedule(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.s == "" {
		t.Fatal("schedule dump empty")
	}
}

type syncBuilder struct{ s string }

func (b *syncBuilder) Write(p []byte) (int, error) {
	b.s += string(p)
	return len(p), nil
}

func TestQueueProducerConsumer(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("q", NewQueue())
	m.MustRegister("sink", Counter{})
	// Producers enqueue 1..N, consumers drain; all inside transactions.
	var wg sync.WaitGroup
	const items = 12
	for i := 0; i < items; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := m.RunRetry(30, func(tx *Tx) error {
				_, err := tx.Write("q", QEnqueue{V: int64(i)})
				return err
			}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	drained := 0
	for {
		var v Value
		err := m.RunRetry(30, func(tx *Tx) error {
			var err error
			v, err = tx.Write("q", QDequeue{})
			if err != nil {
				return err
			}
			if v == nil {
				return nil
			}
			_, err = tx.Write("sink", CtrAdd{Delta: 1})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			break
		}
		drained++
	}
	if drained != items {
		t.Fatalf("drained %d, want %d", drained, items)
	}
	s, _ := m.State("sink")
	if s.(Counter).N != items {
		t.Fatalf("sink = %v", s)
	}
	qs, _ := m.State("q")
	if qs.(Queue).Len() != 0 {
		t.Fatalf("queue not empty: %v", qs)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestChildSlotIgnoresIndexParity: a child is a slot of a chunk shared
// with whatever began next to it, and accesses share the children's
// numbering, so neither the slot nor the name may follow the index's
// parity or the kind of child. After 0, 1 and 3 accesses, a child made by
// Sub, Begin or Go, then an access and children of the other two kinds,
// each gets the name Child builds, runs and commits to the parent; the
// recorded schedule verifies.
func TestChildSlotIgnoresIndexParity(t *testing.T) {
	kinds := []string{"Sub", "Begin", "Go"}
	// start makes a child of tx by kind and runs body in it.
	start := func(kind string, tx *Tx, body func(*Tx) error) error {
		switch kind {
		case "Sub":
			return tx.Sub(body)
		case "Go":
			return tx.Go(body).Wait()
		}
		c, err := tx.Begin()
		if err != nil {
			return err
		}
		if err := body(c); err != nil {
			c.Abort()
			return err
		}
		return c.Commit()
	}
	for _, dos := range []int{0, 1, 3} {
		for i, first := range kinds {
			t.Run(fmt.Sprintf("%s_after_%d_Do", first, dos), func(t *testing.T) {
				m := NewManager(WithRecording())
				m.MustRegister("c", Counter{})
				order := []string{first, kinds[(i+1)%3], kinds[(i+2)%3]}
				err := m.Run(func(tx *Tx) error {
					k := 0
					do := func() error {
						k++
						_, err := tx.Do("c", CtrAdd{Delta: 1})
						return err
					}
					for j := 0; j < dos; j++ {
						if err := do(); err != nil {
							return err
						}
					}
					for j, kind := range order {
						if j == 1 {
							if err := do(); err != nil {
								return err
							}
						}
						want := tx.ID() + fmt.Sprintf(".%d", k)
						k++
						err := start(kind, tx, func(c *Tx) error {
							if c.ID() != want {
								return fmt.Errorf("%s child named %s, want %s", kind, c.ID(), want)
							}
							_, err := c.Do("c", CtrAdd{Delta: 10})
							return err
						})
						if err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if s, _ := m.State("c"); s != (Counter{N: int64(dos + 1 + 30)}) {
					t.Errorf("counter %v, want %d", s, dos+31)
				}
				if err := m.Verify(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestGoChunkMatesRunConcurrently: Go siblings made one after another
// are slots of one chunk, and they run at once, half aborting and half
// committing, and only the committed ones' effects survive. Then a Cancel
// of their parent cascades over open children that share chunks — two
// from Begin, a grandchild, three Go children queued behind a held lock —
// and the parent's Abort returns every one of them. Run it under -race.
func TestGoChunkMatesRunConcurrently(t *testing.T) {
	m := NewManager()
	m.MustRegister("x", Counter{})
	m.MustRegister("y", Counter{})
	const rounds, siblings = 200, 8
	size := unsafe.Sizeof(Tx{})
	adjacent := 0 // rounds in which two siblings took neighbouring slots
	for r := 0; r < rounds; r++ {
		var slots [siblings]uintptr
		err := m.Run(func(tx *Tx) error {
			var ready sync.WaitGroup
			ready.Add(siblings)
			var hs [siblings]*Handle
			for i := range hs {
				obj, fail := "y", i%2 == 0
				if fail {
					obj = "x"
				}
				hs[i] = tx.Go(func(c *Tx) error {
					slots[i] = uintptr(unsafe.Pointer(c))
					ready.Done()
					ready.Wait() // every sibling is running
					if _, err := c.Do(obj, CtrAdd{Delta: 1}); err != nil {
						return err
					}
					if fail {
						return errors.New("aborts")
					}
					return nil
				})
			}
			for i, h := range hs {
				if err := h.Wait(); (err == nil) == (i%2 == 0) {
					return fmt.Errorf("sibling %d: %v", i, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < siblings; i++ {
			if slots[i] == slots[i-1]+size {
				adjacent++
				break
			}
		}
	}
	if adjacent == 0 {
		t.Errorf("in %d rounds no two Go siblings shared a chunk", rounds)
	}
	if x, _ := m.State("x"); x != (Counter{}) {
		t.Errorf("x = %v, want the aborted siblings' effects rolled back", x)
	}
	if y, _ := m.State("y"); y != (Counter{N: rounds * siblings / 2}) {
		t.Errorf("y = %v, want %d", y, rounds*siblings/2)
	}

	holder := m.Begin()
	if _, err := holder.Do("x", CtrAdd{Delta: 1}); err != nil {
		t.Fatal(err)
	}
	top := m.Begin()
	c0, err := top.Begin()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := top.Begin()
	if err != nil {
		t.Fatal(err)
	}
	g, err := c1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var hs []*Handle
	for i := 0; i < 3; i++ {
		hs = append(hs, top.Go(func(c *Tx) error {
			_, err := c.Do("x", CtrGet{})
			return err
		}))
	}
	for deadline := time.Now().Add(10 * time.Second); m.Metrics().QueuedWaiters.Load() < 3; {
		if time.Now().After(deadline) {
			t.Fatal("the Go children never queued")
		}
		time.Sleep(10 * time.Microsecond)
	}
	top.Cancel()
	for _, h := range hs {
		if err := h.Wait(); !errors.Is(err, ErrAborted) {
			t.Errorf("queued Go child %s: %v, want ErrAborted", h.ID(), err)
		}
	}
	for _, c := range []*Tx{c0, c1, g} {
		if _, err := c.Do("y", CtrAdd{Delta: 1}); !errors.Is(err, ErrAborted) {
			t.Errorf("%s after the cascade: Do = %v, want ErrAborted", c.ID(), err)
		}
	}
	top.Abort()
	for _, c := range []*Tx{c0, c1, g} {
		if err := c.Commit(); !errors.Is(err, ErrDone) {
			t.Errorf("%s after its parent aborted: Commit = %v, want ErrDone", c.ID(), err)
		}
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if y, _ := m.State("y"); y != (Counter{N: rounds * siblings / 2}) {
		t.Errorf("y = %v, want %d", y, rounds*siblings/2)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRetainedNamePinsOneChunk: a name kept after its Tx returned keeps
// that Tx's chunk, 2 KiB, and nothing else. Of a top-level transaction
// with 1,000 children of 10 leaves each, only the last leaf's name is
// kept. The value its parent's first sibling returned and the value its
// sibling two before it, most likely a chunk-mate, returned are both
// collected, and dropping the name frees at most one chunk. A Tx that
// kept its parent after returning would keep the whole tree through the
// chunks of its ancestors and their chunk-mates; one that kept its
// result would keep its chunk-mates' values.
func TestRetainedNamePinsOneChunk(t *testing.T) {
	m := NewManager()
	var collected atomic.Int32
	track := func(tx *Tx) {
		v := new([1024]byte)
		runtime.SetFinalizer(v, func(*[1024]byte) { collected.Add(1) })
		tx.Return(v)
	}
	var kept string
	err := m.Run(func(tx *Tx) error {
		for i := range 1000 {
			err := tx.Sub(func(sub *Tx) error {
				if i == 0 {
					track(sub)
				}
				for j := range 10 {
					err := sub.Sub(func(leaf *Tx) error {
						switch {
						case i == 999 && j == 7:
							track(leaf)
						case i == 999 && j == 9:
							kept = leaf.ID()
						}
						return nil
					})
					if err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); collected.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the 2 returned values collected while %s is kept", collected.Load(), kept)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	// Two collections empty the pool of slabs, whose current chunk would
	// otherwise stay reachable without the name.
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	with := heap()
	if kept != "T0.0.999.9" {
		t.Fatalf("kept %q", kept)
	}
	kept = ""
	without := heap()
	if with > without+2048 {
		t.Errorf("the kept name held %d B, more than one 2,048-byte chunk", with-without)
	}
	t.Logf("the kept name held %d B", int64(with)-int64(without))
	runtime.KeepAlive(m)
}

// TestRetainedNameKeepsNoOtherManager: a chunk's Tx all belong to one
// manager, so a name kept from one manager's transaction never keeps
// another manager alive through a chunk-mate's mgr. With one slab pool
// for every manager the unused manager here is never collected.
func TestRetainedNameKeepsNoOtherManager(t *testing.T) {
	a := NewManager()
	var kept string
	if err := a.Run(func(tx *Tx) error { kept = tx.ID(); return nil }); err != nil {
		t.Fatal(err)
	}
	var collected atomic.Bool
	func() {
		b := NewManager()
		runtime.SetFinalizer(b, func(*Manager) { collected.Store(true) })
		for range 5 {
			if err := b.Run(func(*Tx) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); !collected.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("a manager nobody uses stays reachable while %s of another is kept", kept)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(kept)
}

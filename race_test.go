package nestedtx

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx/internal/lockmgr"
)

// TestRegisterRacesTransactionsAndStats is a -race stress test: Register
// of new objects races with in-flight transactions on already-registered
// objects and with concurrent Stats() readers. It asserts no data race
// (the detector's job), that every transaction on a registered object
// succeeds, and that the post-quiescence state is exactly the sum of the
// committed work.
func TestRegisterRacesTransactionsAndStats(t *testing.T) {
	const (
		preRegistered = 4
		lateObjects   = 12
		workers       = 8
		txPerWorker   = 40
	)
	m := NewManager() // no recording: this test is about runtime data races
	for i := 0; i < preRegistered; i++ {
		m.MustRegister(fmt.Sprintf("pre%d", i), Counter{})
	}

	// registered publishes the names transactions may currently touch.
	var mu sync.Mutex
	registered := []string{}
	for i := 0; i < preRegistered; i++ {
		registered = append(registered, fmt.Sprintf("pre%d", i))
	}
	pick := func(n int) string {
		mu.Lock()
		defer mu.Unlock()
		return registered[n%len(registered)]
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Registrar: keeps declaring new objects while transactions run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < lateObjects; i++ {
			name := fmt.Sprintf("late%d", i)
			m.MustRegister(name, Counter{})
			mu.Lock()
			registered = append(registered, name)
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Stats readers: hammer the counters throughout. They run until the
	// workers and registrar quiesce, so they get their own WaitGroup.
	var statsWG sync.WaitGroup
	var statsReads atomic.Int64
	for i := 0; i < 2; i++ {
		statsWG.Add(1)
		go func() {
			defer statsWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.Stats()
					_ = m.CheckInvariants()
					statsReads.Add(1)
				}
			}
		}()
	}

	// Workers: transactions over whatever is registered at pick time.
	var committedAdds atomic.Int64
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < txPerWorker; j++ {
				obj := pick(w*txPerWorker + j)
				err := m.RunRetry(30, func(tx *Tx) error {
					if _, err := tx.Write(obj, CtrAdd{Delta: 1}); err != nil {
						return err
					}
					_, err := tx.Read(obj, CtrGet{})
					return err
				})
				if err != nil {
					errc <- fmt.Errorf("worker %d tx %d on %s: %w", w, j, obj, err)
					return
				}
				committedAdds.Add(1)
			}
		}(w)
	}

	waitWorkers := make(chan struct{})
	go func() { wg.Wait(); close(waitWorkers) }()
	select {
	case <-waitWorkers:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run did not quiesce")
	}
	close(stop)
	statsWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if statsReads.Load() == 0 {
		t.Fatal("stats readers never ran")
	}

	// Post-quiescence: the counters must sum to exactly the committed work.
	var total int64
	mu.Lock()
	names := append([]string(nil), registered...)
	mu.Unlock()
	for _, name := range names {
		st, err := m.State(name)
		if err != nil {
			t.Fatal(err)
		}
		total += st.(Counter).N
	}
	if total != committedAdds.Load() {
		t.Fatalf("sum over objects = %d, want %d committed adds", total, committedAdds.Load())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("post-quiescence invariants: %v", err)
	}
}

// TestRunCtxCancelWhileBlocked cancels a context while the transaction's
// access is parked on a per-object wait queue: the waiter must unblock
// promptly via the abort cascade, the transaction must roll back, and
// RunCtx must surface ctx.Err().
func TestRunCtxCancelWhileBlocked(t *testing.T) {
	m := NewManager()
	m.MustRegister("x", Counter{})

	// Holder: a transaction that write-locks x and parks until released.
	release := make(chan struct{})
	holderBlocked := make(chan struct{})
	holderDone := make(chan error, 1)
	go func() {
		holderDone <- m.Run(func(tx *Tx) error {
			if _, err := tx.Write("x", CtrAdd{Delta: 1}); err != nil {
				return err
			}
			close(holderBlocked)
			<-release
			return nil
		})
	}()
	<-holderBlocked

	// Victim: blocks acquiring x, then its context is cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	victimDone := make(chan error, 1)
	go func() {
		victimDone <- m.RunCtx(ctx, func(tx *Tx) error {
			close(started)
			_, err := tx.Write("x", CtrAdd{Delta: 100})
			return err
		})
	}()
	<-started
	time.Sleep(5 * time.Millisecond) // let the access reach the wait queue
	cancel()
	select {
	case err := <-victimDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled RunCtx did not unblock while parked on the wait queue")
	}

	// The holder commits untouched; the cancelled write never landed.
	close(release)
	if err := <-holderDone; err != nil {
		t.Fatal(err)
	}
	st, err := m.State("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.(Counter).N != 1 {
		t.Fatalf("x = %d, want 1 (cancelled write must roll back)", st.(Counter).N)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAbortCascadeRacesTargetedWakeups races Cancel cascades (parents
// aborting spawned children that are parked on wait queues) against the
// targeted wakeups issued by concurrent commits and aborts on the same
// objects. Run under -race; asserts quiescence, counter consistency, and
// the lock-table⇄held-index invariants.
func TestAbortCascadeRacesTargetedWakeups(t *testing.T) {
	const (
		objects     = 4
		workers     = 8
		txPerWorker = 30
	)
	m := NewManager()
	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprintf("o%d", i)
		m.MustRegister(names[i], Counter{})
	}

	var committedAdds atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := w * 2654435761
			for j := 0; j < txPerWorker; j++ {
				rng ^= j<<16 + j
				first := names[(w+j)%objects]
				second := names[(w+j+1)%objects]
				abortParent := j%3 == 0
				adds := 0
				err := m.RunRetry(50, func(tx *Tx) error {
					adds = 0
					// Two concurrent children contending on shared objects:
					// when the parent aborts, their parked waiters must be
					// cancelled by the cascade while other transactions'
					// commits fire targeted wakeups on the same queues.
					h1 := tx.Go(func(sub *Tx) error {
						if _, err := sub.Write(first, CtrAdd{Delta: 1}); err != nil {
							return err
						}
						_, err := sub.Write(second, CtrAdd{Delta: 1})
						return err
					})
					h2 := tx.Go(func(sub *Tx) error {
						if _, err := sub.Write(second, CtrAdd{Delta: 1}); err != nil {
							return err
						}
						_, err := sub.Write(first, CtrAdd{Delta: 1})
						return err
					})
					if err := h1.Wait(); err != nil {
						return err
					}
					adds += 2
					if err := h2.Wait(); err != nil {
						return err
					}
					adds += 2
					if abortParent {
						return ErrAborted // voluntary abort: cascade + rollback
					}
					return nil
				})
				switch {
				case err == nil:
					committedAdds.Add(int64(adds))
				case abortParent && errors.Is(err, ErrAborted):
					// expected voluntary abort
				case errors.Is(err, ErrDeadlock):
					// retries exhausted under extreme contention: legal
				default:
					errc <- fmt.Errorf("worker %d tx %d: %w", w, j, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("cascade/wakeup stress did not quiesce")
	}
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Post-quiescence: object states sum to exactly the committed adds.
	var total int64
	for _, name := range names {
		st, err := m.State(name)
		if err != nil {
			t.Fatal(err)
		}
		total += st.(Counter).N
	}
	if total != committedAdds.Load() {
		t.Fatalf("sum over objects = %d, want %d committed adds", total, committedAdds.Load())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("post-quiescence invariants: %v", err)
	}
}

// TestRunRetryCtxCancelDuringBackoff pins the RunRetryCtx contract: a
// context cancelled between deadlock-backoff attempts stops the retry
// loop promptly, with both the context error and the deadlock visible.
func TestRunRetryCtxCancelDuringBackoff(t *testing.T) {
	m := NewManager()
	m.MustRegister("a", Counter{})
	m.MustRegister("b", Counter{})

	// Manufacture a deterministic deadlock: two transactions lock a and b
	// in opposite orders. The victim's RunRetryCtx would normally back
	// off and retry forever (attempts is huge); cancelling the context
	// must stop it.
	ctx, cancel := context.WithCancel(context.Background())
	firstA := make(chan struct{})
	firstB := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	errs := make([]error, 2)
	body := func(first, second string, mine, other chan struct{}) func(*Tx) error {
		started := false
		return func(tx *Tx) error {
			if _, err := tx.Write(first, CtrAdd{Delta: 1}); err != nil {
				return err
			}
			if !started {
				started = true
				close(mine)
				<-other
			}
			_, err := tx.Write(second, CtrAdd{Delta: 1})
			if err != nil {
				// One of the two is the victim; as soon as either sees the
				// deadlock, cancel the context so neither retries forever.
				once.Do(cancel)
			}
			return err
		}
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = m.RunRetryCtx(ctx, 1_000_000, body("a", "b", firstA, firstB))
	}()
	go func() {
		defer wg.Done()
		errs[1] = m.RunRetryCtx(ctx, 1_000_000, body("b", "a", firstB, firstA))
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunRetryCtx did not return after cancellation")
	}
	// At least one side must report the cancellation; no side may report
	// success, since the context died before anyone could commit... except
	// the survivor may have committed before cancel landed. Accept: each
	// error is nil, ctx.Err, or a deadlock already in flight.
	sawCancel := false
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			sawCancel = true
		} else if !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrAborted) {
			t.Fatalf("side %d: unexpected error %v", i, err)
		}
	}
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("both sides committed despite forced deadlock + cancel")
	}
	_ = sawCancel // the race decides whether cancel or the deadlock surfaces first
}

// TestRunRetryCtxRetriesDeadlockVictims checks the happy path: deadlock
// victims under an un-cancelled context are retried and eventually
// commit, like RunRetry.
func TestRunRetryCtxRetriesDeadlockVictims(t *testing.T) {
	m := NewManager(WithRecording())
	m.MustRegister("a", Counter{})
	m.MustRegister("b", Counter{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			first, second := "a", "b"
			if i%2 == 1 {
				first, second = second, first
			}
			errc <- m.RunRetryCtx(context.Background(), 50, func(tx *Tx) error {
				if _, err := tx.Write(first, CtrAdd{Delta: 1}); err != nil {
					return err
				}
				_, err := tx.Write(second, CtrAdd{Delta: 1})
				return err
			})
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range []string{"a", "b"} {
		st, err := m.State(obj)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.(Counter).N; got != 8 {
			t.Fatalf("%s = %d, want 8", obj, got)
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelReachesEveryWait cancels a transaction at each point of an
// access's wait: before the access blocks, while it is queued (through the
// parent's cascade), racing the commit that wakes it, and racing the
// deadlock detector electing it. A transaction's cancel channel is made
// only when one of its accesses blocks, so every point must still find it:
// each case ends in ErrAborted or ErrDeadlock, never in a hang, and leaves
// the lock tables clean. A transaction that never waits makes no channel.
func TestCancelReachesEveryWait(t *testing.T) {
	write := CtrAdd{Delta: 1}
	setup := func() *Manager {
		m := NewManager(withLockShards(1))
		m.MustRegister("a", Counter{})
		m.MustRegister("b", Counter{})
		return m
	}
	hold := func(m *Manager, obj string) *Tx {
		tx := m.Begin()
		if _, err := tx.Do(obj, write); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	do := func(tx *Tx, obj string) <-chan error {
		ch := make(chan error, 1)
		go func() { _, err := tx.Do(obj, write); ch <- err }()
		return ch
	}
	await := func(what string, ch <-chan error) error {
		select {
		case err := <-ch:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the access never returned", what)
			return nil
		}
	}
	queued := func(m *Manager, what string) {
		for deadline := time.Now().Add(10 * time.Second); m.Metrics().QueuedWaiters.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the access never queued", what)
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
	commit := func(what string, tx *Tx, want error) {
		if err := tx.Commit(); !errors.Is(err, want) {
			t.Fatalf("%s: commit of %s = %v, want %v", what, tx.ID(), err, want)
		}
	}
	atRest := func(m *Manager, what string) {
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := m.Metrics().QueuedWaiters.Load(); n != 0 {
			t.Fatalf("%s: %d accesses still queued", what, n)
		}
	}
	var victims, cancels int
	for r := 0; r < 500; r++ {
		// Before it blocks: the transaction is cancelled between taking the
		// access's index and the lock manager asking for its channel — the
		// window Do's own check cannot close — so it gets a closed one.
		what := fmt.Sprintf("round %d, before blocking", r)
		m := setup()
		h := hold(m, "a")
		w := m.Begin()
		w.Cancel()
		acquired := make(chan error, 1)
		go func() { _, err := m.lm.Acquire(w.id, "", "a", write, (*txDone)(w)); acquired <- err }()
		if err := await(what, acquired); !errors.Is(err, lockmgr.ErrCancelled) {
			t.Fatalf("%s: Acquire = %v, want ErrCancelled", what, err)
		}
		if _, err := w.Do("a", write); !errors.Is(err, ErrAborted) {
			t.Fatalf("%s: Do = %v, want ErrAborted", what, err)
		}
		commit(what, w, ErrAborted)

		// While it is queued: cancelling the parent reaches the channel its
		// subtransaction's access made when it blocked.
		what = fmt.Sprintf("round %d, while queued", r)
		w = m.Begin()
		sub, err := w.Begin()
		if err != nil {
			t.Fatal(err)
		}
		ch := do(sub, "a")
		queued(m, what)
		w.Cancel()
		if err := await(what, ch); !errors.Is(err, ErrAborted) {
			t.Fatalf("%s: Do = %v, want ErrAborted", what, err)
		}
		w.Abort()
		atRest(m, what)

		// Racing the wake: the holder's commit wakes the access as the
		// cancel lands. Granted or not, the transaction is doomed.
		what = fmt.Sprintf("round %d, racing the wake", r)
		w = m.Begin()
		ch = do(w, "a")
		queued(m, what)
		committed := make(chan error, 1)
		go func() { committed <- h.Commit() }()
		w.Cancel()
		if err := <-committed; err != nil {
			t.Fatalf("%s: the holder's commit = %v", what, err)
		}
		if err := await(what, ch); err != nil && !errors.Is(err, ErrAborted) {
			t.Fatalf("%s: Do = %v, want nil or ErrAborted", what, err)
		}
		commit(what, w, ErrAborted)
		atRest(m, what)

		// Racing a victim election: newer waits on b, older's access on a
		// closes the cycle and elects newer — the deepest waiter, latest
		// sibling — as newer's cancel lands.
		what = fmt.Sprintf("round %d, racing a victim election", r)
		m = setup()
		older, newer := m.Begin(), m.Begin()
		for _, p := range []struct {
			tx  *Tx
			obj string
		}{{newer, "a"}, {older, "b"}} {
			if _, err := p.tx.Do(p.obj, write); err != nil {
				t.Fatal(err)
			}
		}
		ch = do(newer, "b")
		queued(m, what)
		chOlder := do(older, "a")
		newer.Cancel()
		switch err := await(what, ch); {
		case errors.Is(err, ErrDeadlock):
			victims++
		case errors.Is(err, ErrAborted):
			cancels++
		default:
			t.Fatalf("%s: Do = %v, want ErrDeadlock or ErrAborted", what, err)
		}
		newer.Abort()
		if err := await(what, chOlder); err != nil {
			t.Fatalf("%s: the survivor's access = %v", what, err)
		}
		commit(what, older, nil)
		atRest(m, what)
	}
	t.Logf("victim election against the cancel: the victim outcome %d times, the cancel %d", victims, cancels)

	// A transaction that never waits makes no channel: its Tx, its name and
	// its tree's entry in the lock manager's cross-shard index are all it
	// allocates.
	m := setup()
	read := func(tx *Tx) error { _, err := tx.Do("a", CtrGet{}); return err }
	if n := testing.AllocsPerRun(200, func() {
		if err := m.Run(read); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("a transaction with one access that never waits: %.1f allocations, want 3", n)
	}
}

package nestedtx

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/checker"
	"nestedtx/internal/wal"
)

func bumpCtr(m *Manager, name string) error {
	return m.Run(func(tx *Tx) error {
		_, err := tx.Write(name, adt.CtrAdd{Delta: 1})
		return err
	})
}

func ctrState(t *testing.T, m *Manager, name string) int64 {
	t.Helper()
	st, err := m.State(name)
	if err != nil {
		t.Fatalf("State(%s): %v", name, err)
	}
	return st.(adt.Counter).N
}

// TestHotObjectCommitsShareAnFsync: eight writers of one counter on a
// 2 ms device. The write lock is released when the commit record is
// staged, so the next writer stages behind it and one fsync retires the
// lot; held across the fsync, every commit would pay its own.
func TestHotObjectCommitsShareAnFsync(t *testing.T) {
	ffs := wal.NewFaultFS(wal.NewMemFS())
	ffs.SetSyncDelay(2 * time.Millisecond)
	m, _, err := OpenDurable("d", DurableOptions{FS: ffs})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer m.CloseWAL()
	m.MustRegister("hot", adt.Counter{})
	if err := m.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL: %v", err)
	}
	fsyncs0 := m.met.WalFsyncs.Load()

	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := bumpCtr(m, "hot"); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const commits = writers * each
	if got := ctrState(t, m, "hot"); got != commits {
		t.Fatalf("hot = %d after %d acknowledged commits", got, commits)
	}
	fsyncs := m.met.WalFsyncs.Load() - fsyncs0
	if batch := m.met.WalMaxBatch.Load(); fsyncs > commits/2 || batch < 3 {
		t.Fatalf("%d fsyncs for %d commits, largest batch %d: want at most %d and at least 3",
			fsyncs, commits, batch, commits/2)
	}
}

// TestCommitReadsItsOwnWriteThroughState: a commit that has returned is
// below the horizon, whoever else is between stage and fsync — writers of
// other objects took sequence numbers and LSNs in either order, and the
// goroutines one fsync woke run in any order.
func TestCommitReadsItsOwnWriteThroughState(t *testing.T) {
	ffs := wal.NewFaultFS(wal.NewMemFS())
	ffs.SetSyncDelay(200 * time.Microsecond)
	m, _, err := OpenDurable("d", DurableOptions{FS: ffs})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer m.CloseWAL()
	const writers = 8
	for w := 0; w < writers; w++ {
		m.MustRegister(fmt.Sprintf("own%d", w), adt.Counter{})
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("own%d", w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 100; i++ {
				if err := bumpCtr(m, name); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if got := ctrState(t, m, name); got != i {
					t.Errorf("State(%s) = %d after commit %d returned", name, got, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestNoSnapshotAheadOfTheLog: writers bump a counter on a durable
// manager while State and RunReadOnly readers note the largest value
// they see, and the device dies mid-run: it keeps the byte prefix, and
// every later write and sync fails. Nothing past the crash byte is
// acknowledged or settled, so every observation counts, whenever it was
// made. Recovery from the surviving bytes must cover every value a
// reader saw and every commit a writer was acknowledged.
func TestNoSnapshotAheadOfTheLog(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			mem := wal.NewMemFS()
			ffs := wal.NewFaultFS(mem)
			m, _, err := OpenDurable("d", DurableOptions{FS: ffs})
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			m.MustRegister("ctr", adt.Counter{})
			if err := m.SyncWAL(); err != nil {
				t.Fatalf("SyncWAL: %v", err)
			}
			ffs.CrashAfter(200 + rng.Int63n(5000))

			var seen, acked atomic.Int64
			note := func(hi *atomic.Int64, v int64) {
				for {
					cur := hi.Load()
					if v <= cur || hi.CompareAndSwap(cur, v) {
						return
					}
				}
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 15; i++ {
						var v int64
						err := m.Run(func(tx *Tx) error {
							r, err := tx.Write("ctr", adt.CtrAdd{Delta: 1})
							if err == nil {
								v = r.(int64)
							}
							return err
						})
						if err == nil {
							note(&acked, v)
						}
					}
				}()
			}
			var rwg sync.WaitGroup
			for r := 0; r < 2; r++ {
				r := r
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						var v int64
						if r == 0 {
							st, _ := m.State("ctr")
							v = st.(adt.Counter).N
						} else {
							_ = m.RunReadOnly(func(s *Snapshot) error {
								x, err := s.Read("ctr", adt.CtrGet{})
								if err == nil {
									v = x.(int64)
								}
								return err
							})
						}
						note(&seen, v)
					}
				}()
			}
			wg.Wait()
			close(stop)
			rwg.Wait()
			_ = m.CloseWAL()

			m2, rec, err := OpenDurable("d", DurableOptions{FS: mem})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer m2.CloseWAL()
			if err := rec.Verify(); err != nil {
				t.Fatalf("recovered history rejected: %v", err)
			}
			n := ctrState(t, m2, "ctr")
			if s := seen.Load(); s > n {
				t.Fatalf("a reader saw ctr = %d; recovery found %d", s, n)
			}
			if a := acked.Load(); a > n {
				t.Fatalf("commit %d was acknowledged; recovery found %d", a, n)
			}
		})
	}
}

// TestFailedTicketIsNeitherAbortedNorVisible: the device fails between a
// commit's stage and its fsync. The commit has released its locks and
// cannot be rolled back, so Commit reports ErrNotDurable around the
// fault; the lock tables stay sound, no reader outside a lock ever sees
// the value, and the latched log fails every later commit at its stage —
// before it releases anything — so that one is an ordinary abort.
// Recovery then certifies a history holding the not-durable commit and
// not the aborted one.
func TestFailedTicketIsNeitherAbortedNorVisible(t *testing.T) {
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	m, _, err := OpenDurable("d", DurableOptions{FS: ffs})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	m.MustRegister("ctr", adt.Counter{})
	if err := bumpCtr(m, "ctr"); err != nil {
		t.Fatalf("first commit: %v", err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	ffs.SetSyncHook(func() {
		once.Do(func() { close(entered) })
		<-release
	})
	staged := make(chan error, 1)
	go func() { staged <- bumpCtr(m, "ctr") }()
	<-entered // staged, released, its fsync in flight
	if got := ctrState(t, m, "ctr"); got != 1 {
		t.Fatalf("State = %d while the commit of 2 is not durable, want 1", got)
	}
	ffs.CrashAfter(0)
	close(release)
	err = <-staged
	if !errors.Is(err, wal.ErrInjected) || !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Commit = %v, want ErrNotDurable wrapping the injected fault", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("lock tables after a not-durable commit: %v", err)
	}
	if got := m.snap.Lookup("ctr").Latest().(adt.Counter).N; got != 2 {
		t.Fatalf("store's latest staged version = %d: the released commit was rolled back", got)
	}

	// The next commit reads 2 through its lock, and fails at the stage.
	var read int64
	err = m.Run(func(tx *Tx) error {
		v, err := tx.Write("ctr", adt.CtrAdd{Delta: 1})
		if err == nil {
			read = v.(int64)
		}
		return err
	})
	if !errors.Is(err, wal.ErrInjected) || errors.Is(err, ErrNotDurable) {
		t.Fatalf("commit over a latched log = %v, want the fault and an ordinary abort", err)
	}
	if read != 3 {
		t.Fatalf("body saw %d through the lock, want 3", read)
	}
	if got := m.snap.Lookup("ctr").Latest().(adt.Counter).N; got != 2 {
		t.Fatalf("store's latest staged version = %d after the abort, want 2", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("lock tables after the abort: %v", err)
	}
	if got := ctrState(t, m, "ctr"); got != 1 {
		t.Fatalf("State = %d, want the last durable value 1", got)
	}
	if err := m.RunReadOnly(func(s *Snapshot) error {
		v, err := s.Read("ctr", adt.CtrGet{})
		if err == nil && v.(int64) != 1 {
			err = fmt.Errorf("snapshot read %d, want 1", v)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	met := m.Metrics().Snapshot()
	if met.TxCommits != 1 || met.TxLatency.Count != met.TxCommits+met.TxAborts {
		t.Fatalf("tx_commits %d tx_aborts %d tx_latency.count %d: want 1 acknowledged and the sum to reconcile",
			met.TxCommits, met.TxAborts, met.TxLatency.Count)
	}
	ffs.CrashAfter(-1) // the disk heals; the log does not
	if err := m.SyncWAL(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("SyncWAL = %v, want the latched fault", err)
	}
	if err := m.CloseWAL(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("CloseWAL = %v, want the latched fault", err)
	}

	// Recovery from the device: the not-durable commit's bytes reached it
	// before its fsync failed, so that unacknowledged tail commit
	// survives, and the commit aborted at its stage left nothing.
	m2, rec, err := OpenDurable("d", DurableOptions{FS: mem})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer m2.CloseWAL()
	if err := rec.Verify(); err != nil {
		t.Fatalf("recovered history rejected: %v", err)
	}
	if got := ctrState(t, m2, "ctr"); got != 2 {
		t.Fatalf("recovered ctr = %d, want 2: the not-durable commit's bytes were on the device", got)
	}
	commits := 0
	for _, r := range rec.Records {
		if r.Commit != nil {
			commits++
		}
	}
	if commits != 2 {
		t.Fatalf("recovered %d commit records, want 2: the commit aborted at its stage is in the log", commits)
	}
}

// TestConcurrentDuplicateRegisterLogsOne: eight goroutines register one
// name with distinct initial states on a durable manager. Exactly one
// wins, the log holds exactly its Register record, and recovery rebuilds
// the state the live manager served.
func TestConcurrentDuplicateRegisterLogsOne(t *testing.T) {
	for round := 0; round < 20; round++ {
		mem := wal.NewMemFS()
		m, _, err := OpenDurable("d", DurableOptions{FS: mem})
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		var won atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 1; g <= 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if m.Register("dup", adt.Counter{N: int64(g)}) == nil {
					won.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := won.Load(); n != 1 {
			t.Fatalf("%d of 8 registrations of one name succeeded, want 1", n)
		}
		served := ctrState(t, m, "dup")
		if err := m.CloseWAL(); err != nil {
			t.Fatalf("CloseWAL: %v", err)
		}
		m2, rec, err := OpenDurable("d", DurableOptions{FS: mem})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		regs := 0
		for _, r := range rec.Records {
			if r.Register != nil && r.Register.Name == "dup" {
				regs++
			}
		}
		if regs != 1 {
			t.Fatalf("log holds %d Register records for one name, want 1", regs)
		}
		if got := ctrState(t, m2, "dup"); got != served {
			t.Fatalf("recovery rebuilt dup = %d, the live manager served %d", got, served)
		}
		m2.CloseWAL()
	}
}

// TestVerifyRejectsPinAheadOfSettle: a recording in which a read-only
// transaction pinned a publication before it settled — its commit record
// not yet durable — is rejected, as is one that never settled at all.
func TestVerifyRejectsPinAheadOfSettle(t *testing.T) {
	sched, st, pubs, txs := snapHistory(t)
	last := len(pubs) - 1
	if txs[0].Seq != pubs[last].Seq || pubs[last].Settled == 0 || pubs[last].Settled > txs[0].Pinned {
		t.Fatalf("clean history: pin %d at tick %d over publication %d settled at %d",
			txs[0].Seq, txs[0].Pinned, pubs[last].Seq, pubs[last].Settled)
	}
	late := append(pubs[:last:last], pubs[last])
	late[last].Settled = txs[0].Pinned + 1
	wantAnomaly(t, checker.AnomalyUnsettledPin, sched, st, late, txs)
	never := append(pubs[:last:last], pubs[last])
	never[last].Settled = 0
	wantAnomaly(t, checker.AnomalyUnsettledPin, sched, st, never, txs)
}

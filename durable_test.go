package nestedtx

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nestedtx/internal/adt"
	"nestedtx/internal/wal"
)

// TestCrashRecoverySeeds is the Theorem-34-across-a-crash property test:
// for each seed it runs a random concurrent workload on a durable
// manager whose file system is killed at a random byte of the write
// stream (the cut write lands its prefix, and every later write and sync
// fails), recovers from the surviving bytes, and checks that
//
//   - recovery itself succeeds, truncating the torn tail rather than
//     replaying it;
//   - the recovered records are an LSN-contiguous prefix of history:
//     per worker, exactly the first k_w transactions survive, in order,
//     and the recovered counter equals the total number of surviving
//     commits (cross-object consistency);
//   - every commit the workload saw acknowledged (RunRetry returned nil)
//     is recovered: the recovered counter is at least their number;
//   - the reconstructed formal schedule passes the full machine check —
//     well-formedness, M(X) replay with value verification, and the S9
//     serial-correctness checker (Recovery.Verify);
//   - a fresh manager over the recovered state serves it and can keep
//     committing.
//
// Every third seed additionally flips a random byte mid-log (bad CRC),
// which may cut acknowledged commits, so it skips the acknowledgement
// check; every fourth takes a mid-run checkpoint so crashes land before,
// during and after checkpoint writes.
func TestCrashRecoverySeeds(t *testing.T) {
	const seeds = 100
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			runCrashSeed(t, int64(seed))
		})
	}
}

const (
	crashWorkers = 4
	crashTxs     = 8
)

func runCrashSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	dir := "d"

	rng.Intn(3) // a removed knob's draw, kept so every seed crashes at the byte it always did
	segBytes := int64(512 + rng.Intn(4096))
	m, _, err := OpenDurable(dir, DurableOptions{FS: ffs, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}

	crashEarly := seed%7 == 6 // sometimes crash during registration
	crashAt := rng.Int63n(9000) + 120
	if crashEarly {
		crashAt = rng.Int63n(300)
	}
	if crashEarly {
		ffs.CrashAfter(crashAt)
	}
	// Registration errors are only tolerable when the crash is armed
	// this early.
	check := func(err error) {
		if err != nil && !crashEarly {
			t.Fatalf("register: %v", err)
		}
	}
	check(m.Register("ctr", adt.Counter{}))
	check(m.Register("tbl", adt.NewTable(nil)))
	check(m.Register("reg", adt.NewRegister(int64(0))))
	check(m.Register("acct", adt.Account{Balance: 1000}))
	if !crashEarly {
		// Register stages its record; flush them so the budget counts from
		// the first workload byte, as it did when Register fsynced.
		check(m.SyncWAL())
		ffs.CrashAfter(crashAt)
	}

	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < crashWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed*31 + int64(w)))
			key := fmt.Sprintf("w%d", w)
			for i := 0; i < crashTxs; i++ {
				i := i
				// Errors are expected once the crash point passes (and
				// under deadlock no matter what); only a nil return is an
				// acknowledgement recovery must honour.
				err := m.RunRetry(4, func(tx *Tx) error {
					if _, err := tx.Write("ctr", adt.CtrAdd{Delta: 1}); err != nil {
						return err
					}
					if _, err := tx.Write("tbl", adt.TblPut{K: key, V: int64(i)}); err != nil {
						return err
					}
					switch wrng.Intn(4) {
					case 0: // nested committed work
						if err := tx.Sub(func(s *Tx) error {
							_, err := s.Write("reg", adt.RegWrite{V: int64(w*100 + i)})
							return err
						}); err != nil && !errors.Is(err, ErrDeadlock) {
							return err
						}
					case 1: // nested aborted work — must leave no trace
						_ = tx.Sub(func(s *Tx) error {
							if _, err := s.Write("acct", adt.AcctDeposit{Amount: 7}); err != nil {
								return err
							}
							return errors.New("deliberate abort")
						})
					case 2: // concurrent subtransactions
						h1 := tx.Go(func(s *Tx) error {
							_, err := s.Read("reg", adt.RegRead{})
							return err
						})
						h2 := tx.Go(func(s *Tx) error {
							_, err := s.Write("acct", adt.AcctDeposit{Amount: 1})
							return err
						})
						if err := h1.Wait(); err != nil {
							return err
						}
						if err := h2.Wait(); err != nil {
							return err
						}
					}
					return nil
				})
				if err == nil {
					acked.Add(1)
				}
				if w == 0 && i == crashTxs/2 && seed%4 == 3 {
					_ = m.Checkpoint()
				}
			}
		}(w)
	}
	wg.Wait()
	_ = m.CloseWAL()

	// Bit rot on top of the crash for some seeds: flip one byte in a
	// random surviving segment.
	rotted := seed%3 == 2
	if rotted {
		names, _ := mem.ReadDir(dir)
		var segs []string
		for _, n := range names {
			if filepath.Ext(n) == ".seg" {
				segs = append(segs, n)
			}
		}
		if len(segs) > 0 {
			name := filepath.Join(dir, segs[rng.Intn(len(segs))])
			if size, _ := mem.Size(name); size > 0 {
				_ = mem.Corrupt(name, rng.Int63n(size))
			}
		}
	}

	// Recover from the surviving bytes (plain MemFS: the fault injector
	// died with the process).
	m2, rec, err := OpenDurable(dir, DurableOptions{FS: mem}, WithRecording())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer m2.CloseWAL()

	// Theorem 34 across the crash: the recovered schedule passes the
	// full machine check.
	if err := rec.Verify(); err != nil {
		t.Fatalf("recovered schedule rejected: %v", err)
	}

	// Prefix property: per worker, the surviving puts are exactly
	// 0..k_w-1 in order, and the counter equals the total surviving
	// commit count.
	states := rec.States()
	var commits int
	perWorker := make(map[string][]int64)
	lastLSN := rec.CheckpointLSN
	for _, r := range rec.Records {
		if r.LSN < lastLSN {
			t.Fatalf("records out of order: %d after %d", r.LSN, lastLSN)
		}
		lastLSN = r.LSN
		if r.Commit == nil {
			continue
		}
		commits++
		for _, e := range r.Commit.Effects {
			if put, ok := e.Op.(adt.TblPut); ok {
				perWorker[put.K] = append(perWorker[put.K], put.V.(int64))
			}
		}
	}
	if ctr, ok := states["ctr"]; ok {
		if got := ctr.(adt.Counter).N; got != int64(commits) {
			// Commits wholly contained in the checkpoint are no longer
			// records; account for them via the checkpoint base.
			var base int64
			if ck, ok := rec.Checkpoint["ctr"]; ok {
				base = ck.(adt.Counter).N
			}
			if got != base+int64(commits) {
				t.Fatalf("ctr = %d, want %d (checkpoint) + %d (records)", got, base, commits)
			}
		}
	}
	// Acknowledged ⇒ recovered: every commit whose RunRetry returned nil
	// bumped ctr once, and unless bit rot cut the log, recovery keeps it.
	if a := acked.Load(); !rotted && a > 0 {
		ctr, ok := states["ctr"]
		if !ok || ctr.(adt.Counter).N < a {
			t.Fatalf("%d commits acknowledged, recovered ctr = %v", a, ctr)
		}
	}
	for key, vals := range perWorker {
		// A worker's surviving puts must be a dense ascending run
		// (i0, i0+1, ...) — its transactions committed in order, and the
		// log kept a prefix (possibly offset by a checkpoint that
		// absorbed the earliest ones).
		for j := 1; j < len(vals); j++ {
			if vals[j] != vals[j-1]+1 {
				t.Fatalf("%s: puts %v not a dense run", key, vals)
			}
		}
		if tbl, ok := states["tbl"]; ok && len(vals) > 0 {
			_, v := adt.TblGet{K: key}.Apply(tbl)
			if v != vals[len(vals)-1] {
				t.Fatalf("%s: table says %v, last surviving put %d", key, v, vals[len(vals)-1])
			}
		}
	}

	// The recovered manager serves the recovered state and keeps
	// working: run one more transaction and machine-check the new epoch.
	if len(states) == 4 {
		st, err := m2.State("ctr")
		if err != nil {
			t.Fatalf("recovered manager missing ctr: %v", err)
		}
		if st.(adt.Counter).N != states["ctr"].(adt.Counter).N {
			t.Fatalf("manager state %v != recovered %v", st, states["ctr"])
		}
		if err := m2.Run(func(tx *Tx) error {
			_, err := tx.Write("ctr", adt.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			t.Fatalf("post-recovery commit: %v", err)
		}
		if err := m2.Verify(); err != nil {
			t.Fatalf("post-recovery Verify: %v", err)
		}
	}
}

// TestPoisonedWALDrainFailsLoudly is the manager-level half of the
// poisoned-drain regression: after a commit's WAL append fails (the log
// latches the fault), SyncWAL and CloseWAL — the server's drain path —
// must report the latched error even when their own fsync succeeds,
// never a clean shutdown.
func TestPoisonedWALDrainFailsLoudly(t *testing.T) {
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	m, _, err := OpenDurable("d", DurableOptions{FS: ffs})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	m.MustRegister("ctr", adt.Counter{})
	if err := m.Run(func(tx *Tx) error {
		_, err := tx.Write("ctr", adt.CtrAdd{Delta: 1})
		return err
	}); err != nil {
		t.Fatalf("commit: %v", err)
	}

	ffs.CrashAfter(0)
	if err := m.Run(func(tx *Tx) error {
		_, err := tx.Write("ctr", adt.CtrAdd{Delta: 1})
		return err
	}); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("commit past fault: err = %v, want ErrInjected", err)
	}

	// Disk heals; the log stays poisoned and the drain must say so.
	ffs.CrashAfter(-1)
	if err := m.SyncWAL(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("SyncWAL on a poisoned log: err = %v, want the latched ErrInjected", err)
	}
	if err := m.CloseWAL(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("CloseWAL on a poisoned log: err = %v, want the latched ErrInjected", err)
	}
}

// TestRecordingSystemTypeListsEveryObject: only a recording manager keeps
// a system type, and it lists every object the manager serves — adopted
// by OpenDurable's recovery or registered after — each with the state it
// starts from, so Verify replays every object from where the run began.
func TestRecordingSystemTypeListsEveryObject(t *testing.T) {
	mem := wal.NewMemFS()
	m, _, err := OpenDurable("d", DurableOptions{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	m.MustRegister("a", adt.Counter{})
	m.MustRegister("b", adt.Counter{N: 7})
	if err := m.Run(func(tx *Tx) error { _, err := tx.Do("a", adt.CtrAdd{Delta: 1}); return err }); err != nil {
		t.Fatal(err)
	}
	if objs := m.SystemType().Objects(); len(objs) != 0 {
		t.Errorf("a manager that records nothing lists objects %v", objs)
	}
	if err := m.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	r, _, err := OpenDurable("d", DurableOptions{FS: mem}, WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	defer r.CloseWAL()
	r.MustRegister("c", adt.Counter{N: 3})
	want := map[string]adt.State{"a": adt.Counter{N: 1}, "b": adt.Counter{N: 7}, "c": adt.Counter{N: 3}}
	st := r.SystemType()
	if objs := st.Objects(); len(objs) != len(want) {
		t.Errorf("recording manager lists objects %v, want %d", objs, len(want))
	}
	for x, init := range want {
		if got, ok := st.ObjectInitial(x); !ok || got != init {
			t.Errorf("system type has %s starting at %v (listed: %v), want %v", x, got, ok, init)
		}
	}
	if err := r.Run(func(tx *Tx) error {
		for x := range want {
			if _, err := tx.Do(x, adt.CtrAdd{Delta: 1}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenDurableRejectsBadOptions pins the boundary validation: a
// data directory that cannot take writes must fail OpenDurable loudly
// at startup, never surface later as a commit-time I/O error.
func TestOpenDurableRejectsBadOptions(t *testing.T) {
	// A directory whose writes fail (permissions, full/failing disk) is
	// caught by the write probe before any log state is touched.
	ffs := wal.NewFaultFS(wal.NewMemFS())
	ffs.CrashAfter(0)
	if _, _, err := OpenDurable("d", DurableOptions{FS: ffs}); err == nil ||
		!strings.Contains(err.Error(), "not writable") {
		t.Fatalf("unwritable dir: err = %v, want 'not writable'", err)
	}

	// A data-dir path occupied by a regular file is rejected too.
	path := filepath.Join(t.TempDir(), "occupied")
	if werr := os.WriteFile(path, []byte("x"), 0o644); werr != nil {
		t.Fatalf("setup: %v", werr)
	}
	if _, _, err := OpenDurable(path, DurableOptions{}); err == nil {
		t.Fatal("OpenDurable accepted a regular file as data dir")
	}
}

// TestGoldenLogFromParentCommit is the format's compatibility check
// across the codec rewrite. testdata/wal-pr17 is a log directory written
// by the commit before the hand-written codec (PR 17's encoding/json
// one): every state kind, every op, strings that need every kind of
// escape. The directory must recover and verify; re-encoding each
// recovered record must reproduce the segment byte for byte; and after
// this build has appended to it, what txwal verify runs (wal.Inspect,
// then Recovery.Verify) must still accept the mixed log.
func TestGoldenLogFromParentCommit(t *testing.T) {
	const segment = "wal-0000000000000000.seg"
	golden, err := os.ReadFile(filepath.Join("testdata", "wal-pr17", segment))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segment), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	m, rec, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Verify(); err != nil {
		t.Fatalf("parent's log does not verify: %v", err)
	}
	if len(rec.Records) != 14 {
		t.Fatalf("recovered %d records, want 14", len(rec.Records))
	}
	var again []byte
	for _, r := range rec.Records {
		if again, err = wal.EncodeFrame(again, r); err != nil {
			t.Fatal(err)
		}
	}
	if string(again) != string(golden) {
		t.Fatalf("re-encoding the parent's records gives different bytes:\n%s\nwant\n%s", again, golden)
	}

	if err := m.Register("new", adt.NewTable(map[string]Value{"<k>": "v"})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := m.Run(func(tx *Tx) error {
			for obj, op := range map[string]Op{
				"reg": RegWrite{V: "after"}, "ctr": CtrAdd{Delta: -1}, "acct": AcctWithdraw{Amount: 7}, "set": SetInsert{X: int64(i)},
				"queue": adt.QEnqueue{V: AcctResult{OK: true, Balance: 1}}, "tbl": adt.TblPut{K: "k", V: int64(i)}, "new": adt.TblGet{K: "<k>"},
			} {
				if _, err := tx.Do(obj, op); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	mixed, err := os.ReadFile(filepath.Join(dir, segment))
	if err != nil || !strings.HasPrefix(string(mixed), string(golden)) || len(mixed) == len(golden) {
		t.Fatalf("the segment is not the parent's bytes plus new records (%d -> %d bytes, %v)", len(golden), len(mixed), err)
	}
	insp, err := wal.Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Recovery{insp}).Verify(); err != nil {
		t.Fatalf("mixed log does not verify: %v", err)
	}
	if len(insp.Records) != 14+1+3 || insp.TornBytes != 0 {
		t.Fatalf("mixed log: %d records, %d torn bytes", len(insp.Records), insp.TornBytes)
	}
}

// TestReusedEffectListsCarryNothingStale: effect lists are pooled, so a
// list that came back with an aborted subtransaction's effects, or one
// handed out while another transaction still appended to it, would put
// effects in a commit record that never happened there. Concurrent
// transfers — withdraw and deposit as concurrent children, beside a
// voluntarily aborted child that deposits through a grandchild — run on a
// durable manager; the money is conserved live, and the manager recovery
// builds from the log certifies and holds exactly the live states.
func TestReusedEffectListsCarryNothingStale(t *testing.T) {
	const accounts, workers, each = 6, 4, 60
	mem := wal.NewMemFS()
	m, _, err := OpenDurable("d", DurableOptions{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, accounts)
	for i := range names {
		names[i] = fmt.Sprintf("acct%d", i)
		m.MustRegister(names[i], Account{Balance: 1000})
	}
	errVoluntary := errors.New("voluntary abort")
	do := func(obj string, op Op) func(*Tx) error {
		return func(tx *Tx) error {
			_, err := tx.Do(obj, op)
			return err
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < each; n++ {
				i := rng.Intn(accounts)
				a, b := names[i], names[(i+1+rng.Intn(accounts-1))%accounts]
				amt, abort := int64(1+rng.Intn(5)), rng.Intn(2) == 0
				err := m.RunRetry(50, func(tx *Tx) error {
					withdraw := tx.Go(do(a, AcctWithdraw{Amount: amt}))
					deposit := tx.Go(do(b, AcctDeposit{Amount: amt}))
					if err := withdraw.Wait(); err != nil {
						return err
					}
					if err := deposit.Wait(); err != nil {
						return err
					}
					if !abort {
						return nil
					}
					err := tx.Sub(func(sub *Tx) error {
						if err := do(b, AcctDeposit{Amount: 1000})(sub); err != nil {
							return err
						}
						if err := sub.Sub(do(a, AcctDeposit{Amount: 1000})); err != nil {
							return err
						}
						return errVoluntary
					})
					if errors.Is(err, errVoluntary) {
						return nil
					}
					return err
				})
				if err != nil && !errors.Is(err, ErrDeadlock) {
					t.Errorf("transfer: %v", err)
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	live := make(map[string]State, accounts)
	var total int64
	for _, x := range names {
		st, err := m.State(x)
		if err != nil {
			t.Fatal(err)
		}
		live[x] = st
		total += st.(Account).Balance
	}
	if total != accounts*1000 {
		t.Fatalf("balances sum to %d live, want %d", total, accounts*1000)
	}
	if err := m.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	m2, rec, err := OpenDurable("d", DurableOptions{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.CloseWAL()
	if err := rec.Verify(); err != nil {
		t.Fatalf("recovered history: %v", err)
	}
	for _, x := range names {
		if st, err := m2.State(x); err != nil || st != live[x] {
			t.Errorf("recovered %s = %v, %v; live %v", x, st, err, live[x])
		}
	}
}

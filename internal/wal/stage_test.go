package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/obs"
)

// stalledLog opens a log over a FaultFS whose first fsync parks in its
// hook until release is closed, stages one record so that flush is in
// flight (the write buffer swapped out and empty), and returns with the
// stall holding. syncs counts every file fsync issued.
func stalledLog(t *testing.T, opts Options) (lg *Log, mem *MemFS, ffs *FaultFS, release chan struct{}, syncs *atomic.Int64) {
	t.Helper()
	return stalledLogOn(t, opts, func(fs FS) FS { return fs })
}

// stalledLogOn is stalledLog with the log opened on wrap(the FaultFS).
func stalledLogOn(t *testing.T, opts Options, wrap func(FS) FS) (lg *Log, mem *MemFS, ffs *FaultFS, release chan struct{}, syncs *atomic.Int64) {
	t.Helper()
	mem = NewMemFS()
	ffs = NewFaultFS(mem)
	var once sync.Once
	entered := make(chan struct{})
	release = make(chan struct{})
	syncs = new(atomic.Int64)
	ffs.SetSyncHook(func() {
		syncs.Add(1)
		once.Do(func() { close(entered) })
		<-release
	})
	lg, _ = mustOpen(t, wrap(ffs), "d", opts)
	if _, err := lg.Stage(Record{Register: &RegisterRecord{Name: "ctr", Initial: adt.Counter{}}}, nil); err != nil {
		t.Fatalf("stage register: %v", err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("fsync never issued")
	}
	return lg, mem, ffs, release, syncs
}

func bump(i int) Record {
	return Record{Commit: &CommitRecord{TID: fmt.Sprintf("T0.%d", i), Value: int64(1),
		Effects: []Effect{{Obj: "ctr", Op: adt.CtrAdd{Delta: 1}, Val: int64(i)}}}}
}

// regWrite is a commit whose logged value does not depend on what was
// staged before it, for stagers that race.
func regWrite(v int64) Record {
	return Record{Commit: &CommitRecord{TID: "T0.1", Value: v,
		Effects: []Effect{{Obj: "reg", Op: adt.RegWrite{V: v}, Val: v}}}}
}

func (l *Log) staged() int {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return len(l.wbuf)
}

// stageUntilBlocked stages bump records from one goroutine until the
// byte budget holds one back, and returns how many went through, the
// tickets so far, and the channel the stager reports its first error (or
// nil after total records) on.
func stageUntilBlocked(t *testing.T, lg *Log, total int) (int, *[]Ticket, chan error) {
	t.Helper()
	var n atomic.Int64
	tickets := new([]Ticket)
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= total; i++ {
			tk, err := lg.Stage(bump(i), nil)
			if err != nil {
				done <- err
				return
			}
			*tickets = append(*tickets, tk)
			n.Add(1)
		}
		done <- nil
	}()
	deadline := time.Now().Add(5 * time.Second)
	for lg.staged() <= lg.wbufMax {
		if time.Now().After(deadline) {
			t.Fatalf("staged %d B never passed the %d B budget", lg.staged(), lg.wbufMax)
		}
		time.Sleep(time.Millisecond)
	}
	// Over the budget: the next frame must be held back for as long as
	// the stall lasts.
	before := n.Load()
	time.Sleep(30 * time.Millisecond)
	if after := n.Load(); after != before {
		t.Fatalf("stager went from %d to %d records with the buffer over budget", before, after)
	}
	return int(before), tickets, done
}

// TestStagingBlocksAtTheByteBudget: with the device stalled, stagers
// proceed (TestStalledFsyncDoesNotBlockAppends) until wbuf passes its
// budget and then wait; the buffer never holds more than the budget plus
// one frame, and releasing the stall drains everything in LSN order.
func TestStagingBlocksAtTheByteBudget(t *testing.T) {
	lg, mem, _, release, _ := stalledLog(t, Options{SegmentBytes: 16 << 10})
	const total = 160 // four budgets' worth of ~100 B frames
	staged, tickets, done := stageUntilBlocked(t, lg, total)
	if staged >= total {
		t.Fatalf("all %d records staged: the budget never bit", total)
	}
	frame := lg.staged() / staged
	if got, max := lg.staged(), lg.wbufMax+2*frame; got > max {
		t.Fatalf("wbuf holds %d B, budget %d + one ~%d B frame", got, lg.wbufMax, frame)
	}
	if st := lg.Stats(); st.DurableLSN != 0 {
		t.Fatalf("durable mark %d moved under a stalled fsync", st.DurableLSN)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("stager after release: %v", err)
	}
	for i, tk := range *tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := mustOpen(t, mem, "d", Options{})
	if len(rec.Records) != total+1 {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), total+1)
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i) {
			t.Fatalf("record %d has LSN %d: drained out of order", i, r.LSN)
		}
	}
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
}

// TestLatchedErrorWakesBlockedStagers: a stager held at the budget when
// the stalled fsync fails is woken with the fault — it does not wait for
// a flush that will never come — and every staged ticket fails with it.
func TestLatchedErrorWakesBlockedStagers(t *testing.T) {
	lg, _, ffs, release, _ := stalledLog(t, Options{SegmentBytes: 16 << 10})
	_, tickets, done := stageUntilBlocked(t, lg, 160)
	ffs.CrashAfter(0)
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("blocked stager woke with %v, want the latched ErrInjected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked stager never woke after the log latched")
	}
	for i, tk := range *tickets {
		if err := tk.Wait(); !errors.Is(err, ErrInjected) {
			t.Fatalf("ticket %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := lg.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close: err = %v, want the latched ErrInjected", err)
	}
}

// TestCheckpointRetiresParkedTickets: a checkpoint taken while commits
// are parked on their tickets covers their records, so it waits for them
// to be durable — they are answered by the time it returns — without
// forcing an fsync of its own on the log, and the log it leaves verifies.
func TestCheckpointRetiresParkedTickets(t *testing.T) {
	lg, mem, _, release, syncs := stalledLog(t, Options{})
	const parked = 8
	var tickets []Ticket
	for i := 1; i <= parked; i++ {
		tk, err := lg.Stage(bump(i), nil)
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	// The checkpoint captures behind the stalled flush and waits for the
	// syncer to make its records durable once the stall lifts.
	ckpt := make(chan error, 1)
	go func() {
		ckpt <- lg.Checkpoint(mapCapture(func() map[string]adt.State {
			return map[string]adt.State{"ctr": adt.Counter{N: parked}}
		}))
	}()
	waitFor(t, "the checkpoint to start", lg.checkpointing)
	close(release)
	if err := <-ckpt; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after := syncs.Load()
	for i, tk := range tickets {
		if ok, err := answered(tk); !ok {
			t.Fatalf("ticket %d still parked after the checkpoint returned", i)
		} else if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if st := lg.Stats(); st.DurableLSN != parked+1 || st.CheckpointLSN != parked+1 {
		t.Fatalf("durable %d checkpoint %d, want both %d", st.DurableLSN, st.CheckpointLSN, parked+1)
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close's own drain is the only fsync since: the syncer found nothing
	// parked and issued none.
	if got := syncs.Load(); got != after+1 {
		t.Fatalf("%d fsyncs after the checkpoint, want only Close's", got-after)
	}
	_, rec := mustOpen(t, mem, "d", Options{})
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
	if got := rec.States()["ctr"].(adt.Counter).N; got != parked {
		t.Fatalf("recovered ctr = %d, want %d", got, parked)
	}
}

// answered reports, without parking, whether the ticket has its answer
// yet, and the answer Wait would return.
func answered(tk Ticket) (bool, error) {
	l := tk.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.durable > tk.lsn {
		return true, nil
	}
	return l.err != nil, l.err
}

// checkpointing reports whether a checkpoint is in progress.
func (l *Log) checkpointing() bool {
	if l.ckmu.TryLock() {
		l.ckmu.Unlock()
		return false
	}
	return true
}

// TestTenThousandStagers: the way into the log is one critical section,
// so n goroutines staging at once cost n sections, not n wake-ups each:
// 10,000 of them, through rotations and the byte budget, finish in well
// under the bound, and the log they leave is one contiguous LSN run that
// certifies.
func TestTenThousandStagers(t *testing.T) {
	const n = 10000
	mem := NewMemFS()
	lg, _ := mustOpen(t, mem, "d", Options{SegmentBytes: 64 << 10})
	if err := lg.AppendApply(Record{Register: &RegisterRecord{Name: "reg", Initial: adt.NewRegister(int64(0))}}, nil); err != nil {
		t.Fatalf("register: %v", err)
	}
	start := time.Now()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(v int64) {
			tk, err := lg.Stage(regWrite(v), nil)
			if err == nil {
				err = tk.Wait()
			}
			errs <- err
		}(int64(i))
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("stager: %v", err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("%d stagers took %v, want under 5s", n, d)
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := mustOpen(t, mem, "d", Options{})
	if len(rec.Records) != n+1 {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n+1)
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
}

// TestGateNotHeldAcrossTheDeviceWait: with the device stalled, AppendBatch
// and AppendApply stage their records and then wait for the fsync without
// the checkpoint gate — a checkpoint could take it.
func TestGateNotHeldAcrossTheDeviceWait(t *testing.T) {
	lg, _, _, release, _ := stalledLog(t, Options{})
	batch := []Record{bump(1), bump(2)}
	batch[0].LSN, batch[1].LSN = 1, 2
	done := make(chan error, 2)
	go func() { done <- lg.AppendBatch(batch) }()
	waitFor(t, "the batch to stage", func() bool { return lg.Stats().NextLSN == 3 })
	go func() { done <- lg.AppendApply(bump(3), nil) }()
	waitFor(t, "the gate to be free with both parked on the stalled fsync", func() bool {
		if lg.Stats().NextLSN != 4 || !lg.gate.TryLock() {
			return false
		}
		lg.gate.Unlock()
		return true
	})
	select {
	case err := <-done:
		t.Fatalf("an append returned %v under a stalled fsync", err)
	default:
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("append after release: %v", err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// noSegmentFS refuses to create a segment while armed.
type noSegmentFS struct {
	FS
	armed atomic.Bool
}

func (fs *noSegmentFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if fs.armed.Load() && flag&os.O_CREATE != 0 && strings.HasSuffix(name, ".seg") {
		return nil, ErrInjected
	}
	return fs.FS.OpenFile(name, flag, perm)
}

// TestFailedRotationConsumesNoLSN: a stager whose rotation cannot create
// the next segment gets the error and the log latches, but the sequence
// does not move — there is no record at that LSN, in memory or on disk.
func TestFailedRotationConsumesNoLSN(t *testing.T) {
	mem := NewMemFS()
	fs := &noSegmentFS{FS: mem}
	lg, _ := mustOpen(t, fs, "d", Options{SegmentBytes: 1 << 10})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	first := lg.Stats().Segment
	fs.armed.Store(true)
	var staged uint64
	for {
		err := lg.AppendApply(bump(int(staged)+1), nil)
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("rotation past the fault: err = %v, want ErrInjected", err)
			}
			break
		}
		if staged++; lg.Stats().Segment != first {
			t.Fatal("rotated with segment creation refused")
		}
	}
	if got := lg.Stats().NextLSN; got != staged+1 {
		t.Fatalf("NextLSN %d after a failed rotation, want %d: the stager took an LSN for a record that does not exist", got, staged+1)
	}
	if err := lg.AppendApply(bump(int(staged)+1), nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("append on the latched log: err = %v, want the latched ErrInjected", err)
	}
	if err := lg.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close: err = %v, want the latched ErrInjected", err)
	}
	_, rec := mustOpen(t, mem, "d", Options{})
	if rec.NextLSN != staged+1 {
		t.Fatalf("recovered NextLSN %d, want %d", rec.NextLSN, staged+1)
	}
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
}

// failTmpFS fails every write to a checkpoint's temporary file while
// armed; segments are written as usual.
type failTmpFS struct {
	FS
	armed atomic.Bool
}

func (fs *failTmpFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err == nil && fs.armed.Load() && strings.HasPrefix(filepath.Base(name), "ckpt-") && strings.HasSuffix(name, ".tmp") {
		return failingWrites{f}, nil
	}
	return f, err
}

type failingWrites struct{ File }

func (failingWrites) Write([]byte) (int, error) { return 0, ErrInjected }

// TestFailedCheckpointLeavesTheLogUnlatched: a checkpoint whose file
// write fails — here while commits are parked on a stalled fsync — returns
// the error, removes its temporary file and leaves the log as it was: the
// parked tickets are answered by the durable mark, later commits commit,
// the next checkpoint succeeds, and the log recovers and certifies.
func TestFailedCheckpointLeavesTheLogUnlatched(t *testing.T) {
	var fs *failTmpFS
	lg, mem, _, release, _ := stalledLogOn(t, Options{}, func(inner FS) FS {
		fs = &failTmpFS{FS: inner}
		return fs
	})
	const parked = 8
	var tickets []Ticket
	for i := 1; i <= parked; i++ {
		tk, err := lg.Stage(bump(i), nil)
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	states := map[string]adt.State{"ctr": adt.Counter{N: parked}}
	fs.armed.Store(true)
	ckpt := make(chan error, 1)
	go func() { ckpt <- lg.Checkpoint(mapCapture(func() map[string]adt.State { return states })) }()
	waitFor(t, "the checkpoint to start", lg.checkpointing)
	close(release)
	if err := <-ckpt; !errors.Is(err, ErrInjected) {
		t.Fatalf("Checkpoint: err = %v, want ErrInjected", err)
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	names, _ := mem.ReadDir("d")
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("failed checkpoint left %s behind", n)
		}
	}
	if st := lg.Stats(); st.CheckpointLSN != 0 {
		t.Fatalf("failed checkpoint moved the low-water mark to %d", st.CheckpointLSN)
	}
	if err := lg.AppendApply(bump(parked+1), nil); err != nil {
		t.Fatalf("commit after the failed checkpoint: %v", err)
	}
	states["ctr"] = adt.Counter{N: parked + 1}
	fs.armed.Store(false)
	if err := lg.Checkpoint(mapCapture(func() map[string]adt.State { return states })); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := mustOpen(t, mem, "d", Options{})
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
	if got := rec.States()["ctr"].(adt.Counter).N; got != parked+1 || rec.CheckpointLSN != parked+2 {
		t.Fatalf("recovered ctr = %d from checkpoint %d, want %d from %d", got, rec.CheckpointLSN, parked+1, parked+2)
	}
}

// TestFailedCutoverStillAnswersItsTickets: an installed snapshot answers
// the parked tickets when its seal fsync succeeds — their records are
// durable then, the checkpoint file being already in place — so a cutover
// that fails afterwards fails the install and latches the log, but does
// not report commits as lost that recovery will find.
func TestFailedCutoverStillAnswersItsTickets(t *testing.T) {
	var fs *noSegmentFS
	lg, mem, _, release, _ := stalledLogOn(t, Options{}, func(inner FS) FS {
		fs = &noSegmentFS{FS: inner}
		return fs
	})
	const parked = 8
	var tickets []Ticket
	for i := 1; i <= parked; i++ {
		tk, err := lg.Stage(bump(i), nil)
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	install := make(chan error, 1)
	go func() {
		_, err := lg.InstallSnapshot(snapshotFile(t, parked+1, map[string]adt.State{"ctr": adt.Counter{N: parked}}))
		install <- err
	}()
	waitFor(t, "the install to start", lg.checkpointing)
	fs.armed.Store(true)
	close(release)
	if err := <-install; !errors.Is(err, ErrInjected) {
		t.Fatalf("InstallSnapshot: err = %v, want ErrInjected", err)
	}
	for i, tk := range tickets {
		if ok, err := answered(tk); !ok {
			t.Fatalf("ticket %d still parked after the install returned", i)
		} else if err != nil {
			t.Fatalf("ticket %d: %v, but its record is durable", i, err)
		}
	}
	if _, err := lg.Stage(bump(parked+1), nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("stage on the latched log: err = %v, want the latched ErrInjected", err)
	}
	lg.Close()
	_, rec := mustOpen(t, mem, "d", Options{})
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
	if got := rec.States()["ctr"].(adt.Counter).N; got != parked || rec.NextLSN != parked+1 {
		t.Fatalf("recovered ctr = %d at LSN %d, want %d at %d", got, rec.NextLSN, parked, parked+1)
	}
}

// TestManyStagersAtTheByteBudget: the budget holds any number of stagers,
// not one. Eight of them held behind a stalled fsync all wake with the
// fault when it fails, and all go through, at contiguous LSNs, when it is
// released.
func TestManyStagersAtTheByteBudget(t *testing.T) {
	const held = 8
	setup := func(t *testing.T) (*Log, *MemFS, *FaultFS, chan struct{}, int, chan error) {
		lg, mem, ffs, release, _ := stalledLog(t, Options{SegmentBytes: 16 << 10})
		filled := 0
		for lg.staged() <= lg.wbufMax {
			filled++
			if _, err := lg.Stage(bump(filled), nil); err != nil {
				t.Fatalf("stage %d: %v", filled, err)
			}
		}
		done := make(chan error, held)
		for i := 0; i < held; i++ {
			go func() {
				tk, err := lg.Stage(Record{Commit: &CommitRecord{TID: "T0.0", Value: int64(0),
					Effects: []Effect{{Obj: "ctr", Op: adt.CtrGet{}, Val: int64(filled)}}}}, nil)
				if err == nil {
					err = tk.Wait()
				}
				done <- err
			}()
		}
		time.Sleep(30 * time.Millisecond)
		if got := lg.Stats().NextLSN; got != uint64(filled)+1 {
			t.Fatalf("NextLSN went from %d to %d with the buffer over budget", filled+1, got)
		}
		return lg, mem, ffs, release, filled, done
	}

	t.Run("fault", func(t *testing.T) {
		lg, _, ffs, release, _, done := setup(t)
		ffs.CrashAfter(0)
		close(release)
		for i := 0; i < held; i++ {
			select {
			case err := <-done:
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("held stager woke with %v, want the latched ErrInjected", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d held stagers never woke after the log latched", held-i, held)
			}
		}
		if err := lg.Close(); !errors.Is(err, ErrInjected) {
			t.Fatalf("Close: err = %v, want the latched ErrInjected", err)
		}
	})

	t.Run("release", func(t *testing.T) {
		lg, mem, _, release, filled, done := setup(t)
		close(release)
		for i := 0; i < held; i++ {
			if err := <-done; err != nil {
				t.Fatalf("held stager after release: %v", err)
			}
		}
		if err := lg.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		_, rec := mustOpen(t, mem, "d", Options{})
		if want := 1 + filled + held; len(rec.Records) != want {
			t.Fatalf("recovered %d records, want %d", len(rec.Records), want)
		}
		for i, r := range rec.Records {
			if r.LSN != uint64(i) {
				t.Fatalf("record %d has LSN %d: drained out of order", i, r.LSN)
			}
		}
		if err := certify(rec); err != nil {
			t.Fatalf("certify: %v", err)
		}
	})
}

// TestFailedFlushIsNotAnFsync: a flush that fails retires nothing, so it
// moves none of the fsync metrics — a batch of nine records whose fsync
// dies with the device leaves the fsync count, the batch high-water mark
// and the fsync latency histogram where they were.
func TestFailedFlushIsNotAnFsync(t *testing.T) {
	met := new(obs.Metrics)
	lg, _, ffs, release, _ := stalledLog(t, Options{Metrics: met})
	ffs.CrashAfter(0)
	var tickets []Ticket
	for i := 1; i <= 8; i++ {
		tk, err := lg.Stage(bump(i), nil)
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	close(release)
	for i, tk := range tickets {
		if err := tk.Wait(); !errors.Is(err, ErrInjected) {
			t.Fatalf("ticket %d: err = %v, want ErrInjected", i, err)
		}
	}
	if f, b, n := met.WalFsyncs.Load(), met.WalMaxBatch.Load(), met.FsyncLatency.Count(); f != 0 || b != 0 || n != 0 {
		t.Fatalf("after a failed flush: wal_fsyncs %d, wal_max_batch %d, fsync_latency.count %d, want all 0", f, b, n)
	}
	lg.Close()
}

// TestTicketsAnsweredByTheDurableMark: 64 stagers, with Sync and
// Checkpoint interleaved and a crash armed partway, through rotations.
// Every ticket's answer is the durable mark's: nil if and only if its LSN
// is below the final mark, the latched fault otherwise, and the same
// answer when asked twice. Every acknowledged record is recovered, and
// the recovered log certifies.
func TestTicketsAnsweredByTheDurableMark(t *testing.T) {
	const stagers, each = 64, 16
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	lg, _ := mustOpen(t, ffs, "d", Options{SegmentBytes: 4 << 10})
	if err := lg.AppendApply(Record{Register: &RegisterRecord{Name: "reg", Initial: adt.NewRegister(int64(0))}}, nil); err != nil {
		t.Fatalf("register: %v", err)
	}
	// last is the register's redo state: the value of the highest LSN
	// applied. A checkpoint captures it with staging excluded.
	var mu sync.Mutex
	var last struct{ lsn, v uint64 }
	capture := mapCapture(func() map[string]adt.State {
		mu.Lock()
		defer mu.Unlock()
		return map[string]adt.State{"reg": adt.NewRegister(int64(last.v))}
	})
	type staged struct {
		tk Ticket
		v  int64
	}
	var armed sync.Once
	var stagedN atomic.Int64
	out := make(chan []staged, stagers)
	for s := 0; s < stagers; s++ {
		go func(s int) {
			var mine []staged
			defer func() { out <- mine }()
			for i := 0; i < each; i++ {
				v := int64(s*each + i + 1)
				tk, err := lg.Stage(regWrite(v), func(lsn uint64) error {
					mu.Lock()
					if lsn > last.lsn {
						last.lsn, last.v = lsn, uint64(v)
					}
					mu.Unlock()
					return nil
				})
				if err != nil {
					return // the log latched
				}
				mine = append(mine, staged{tk, v})
				switch n := stagedN.Add(1); {
				case n == stagers*each/2:
					armed.Do(func() { ffs.CrashAfter(2 << 10) })
				case n%97 == 0:
					lg.Sync()
				case n%151 == 0:
					lg.Checkpoint(capture)
				}
			}
		}(s)
	}
	var all []staged
	for s := 0; s < stagers; s++ {
		all = append(all, <-out...)
	}
	lg.Close()
	durable := lg.DurableLSN()
	if durable >= uint64(len(all))+1 {
		t.Fatalf("durable mark %d covers all %d records: the crash never latched the log", durable, len(all)+1)
	}
	var latched error
	for _, s := range all {
		first, second := s.tk.Wait(), s.tk.Wait()
		if first != second {
			t.Fatalf("LSN %d answered %v, then %v", s.tk.lsn, first, second)
		}
		switch {
		case s.tk.lsn < durable && first != nil:
			t.Fatalf("LSN %d below the durable mark %d answered %v", s.tk.lsn, durable, first)
		case s.tk.lsn >= durable && !errors.Is(first, ErrInjected):
			t.Fatalf("LSN %d at or past the durable mark %d answered %v, want the latched fault", s.tk.lsn, durable, first)
		case s.tk.lsn >= durable && latched != nil && first != latched:
			t.Fatalf("LSN %d answered %v, another %v: one latched fault answers all", s.tk.lsn, first, latched)
		case s.tk.lsn >= durable:
			latched = first
		}
	}
	_, rec := mustOpen(t, mem, "d", Options{})
	if rec.NextLSN < durable {
		t.Fatalf("recovered up to LSN %d, but %d was acknowledged durable", rec.NextLSN, durable)
	}
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
}

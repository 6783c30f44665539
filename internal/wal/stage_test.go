package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx/internal/adt"
)

// stalledLog opens a log over a FaultFS whose first fsync parks in its
// hook until release is closed, stages one record so that flush is in
// flight (the write buffer swapped out and empty), and returns with the
// stall holding. syncs counts every file fsync issued.
func stalledLog(t *testing.T, opts Options) (lg *Log, mem *MemFS, ffs *FaultFS, release chan struct{}, syncs *atomic.Int64) {
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
	lg, _ = mustOpen(t, ffs, "d", opts)
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
	if err := rec.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestLatchedErrorWakesBlockedStagers: a stager held at the budget when
// the stalled fsync fails is woken with the fault — it does not wait for
// a flush that will never come — and every staged ticket fails with it.
func TestLatchedErrorWakesBlockedStagers(t *testing.T) {
	lg, _, ffs, release, _ := stalledLog(t, Options{SegmentBytes: 16 << 10})
	_, tickets, done := stageUntilBlocked(t, lg, 160)
	ffs.FailAfter(0)
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
// are parked on their tickets covers their records, so it retires them
// itself — they are answered by the time it returns, not by a later
// empty fsync — and the log it leaves verifies.
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
	// The checkpoint queues behind the stalled flush holding the write
	// path, so it — not the syncer — is next at the device once the stall
	// lifts.
	ckpt := make(chan error, 1)
	go func() {
		ckpt <- lg.Checkpoint(func() map[string]adt.State {
			return map[string]adt.State{"ctr": adt.Counter{N: parked}}
		})
	}()
	for !lg.wmuHeld() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-ckpt; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after := syncs.Load()
	for i, tk := range tickets {
		select {
		case err := <-tk.ch:
			if err != nil {
				t.Fatalf("ticket %d: %v", i, err)
			}
		default:
			t.Fatalf("ticket %d still parked after the checkpoint returned", i)
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
	if err := rec.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := rec.States()["ctr"].(adt.Counter).N; got != parked {
		t.Fatalf("recovered ctr = %d, want %d", got, parked)
	}
}

// wmuHeld reports whether some goroutine holds the write path.
func (l *Log) wmuHeld() bool {
	if l.wmu.TryLock() {
		l.wmu.Unlock()
		return false
	}
	return true
}

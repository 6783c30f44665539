package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx/internal/adt"
)

// TestStalledFsyncDoesNotBlockAppends pins the pipelined write/sync
// split: while one fsync is held in flight (a blocking FaultFS sync
// hook), appenders must still complete their segment writes — the
// written mark advances — while the durable mark stays exactly where the
// stalled fsync left it: it may never cover an LSN no completed fsync
// has seen. Releasing the stall retires everything, and the resulting
// log passes full recovery verification.
func TestStalledFsyncDoesNotBlockAppends(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	ffs.SetSyncHook(func() {
		once.Do(func() { close(entered) })
		<-release
	})

	lg, _ := mustOpen(t, ffs, "d", Options{})
	defer lg.Close()

	var acked atomic.Int64
	var wg sync.WaitGroup
	appendAsync := func(r Record) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := lg.AppendApply(r, nil); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			acked.Add(1)
		}()
	}

	// First append: its flush enters the hook and stalls there.
	appendAsync(Record{Register: &RegisterRecord{Name: "reg", Initial: adt.NewRegister(int64(0))}})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("fsync never issued")
	}

	// With the flush in flight, more appends must finish their writes.
	const extra = 8
	for i := 0; i < extra; i++ {
		v := int64(i)
		appendAsync(Record{Commit: &CommitRecord{TID: "T0.1", Value: v,
			Effects: []Effect{{Obj: "reg", Op: adt.RegWrite{V: v}, Val: v}}}})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := lg.Stats()
		// The stalled fsync has not completed: the durable mark must not
		// move, no matter how many frames have been written past it.
		if st.DurableLSN != 0 {
			t.Fatalf("durable mark %d advanced past a stalled fsync", st.DurableLSN)
		}
		if st.NextLSN == extra+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writes stuck behind the stalled fsync: written=%d, want %d",
				st.NextLSN, extra+1)
		}
		time.Sleep(time.Millisecond)
	}
	if got := acked.Load(); got != 0 {
		t.Fatalf("%d commits acked before any fsync completed", got)
	}

	close(release)
	wg.Wait()
	if st := lg.Stats(); st.DurableLSN != extra+1 {
		t.Fatalf("durable mark %d after all acks, want %d", st.DurableLSN, extra+1)
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := mustOpen(t, mem, "d", Options{})
	if len(rec.Records) != extra+1 {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), extra+1)
	}
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
}

// TestPoisonedLogDrainFailsLoudly is the regression test for the drain
// bug: a failed append latches a fatal error, and a later Sync or Close
// must report it even when their own fsync succeeds (the disk "healed"),
// because acknowledged state past the torn frame is gone. Before the
// fix, both returned nil and a server drain reported a clean shutdown
// over a poisoned log.
func TestPoisonedLogDrainFailsLoudly(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	lg, _ := mustOpen(t, ffs, "d", Options{})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	h.commit("ctr", adt.CtrAdd{Delta: 1})

	ffs.CrashAfter(0)
	err := lg.AppendApply(Record{Commit: &CommitRecord{TID: "T0.9", Value: int64(1),
		Effects: []Effect{{Obj: "ctr", Op: adt.CtrAdd{Delta: 1}, Val: int64(2)}}}}, nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("append past fault: err = %v, want ErrInjected", err)
	}

	// The disk heals: raw fsyncs succeed again. The log must still be
	// poisoned — its tail holds a torn frame.
	ffs.CrashAfter(-1)
	if err := lg.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Sync on a poisoned log: err = %v, want the latched ErrInjected", err)
	}
	if err := lg.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close on a poisoned log: err = %v, want the latched ErrInjected", err)
	}
}

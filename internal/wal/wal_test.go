package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/obs"
)

// harness appends commit records against a shadow state so logged values
// always match what redo will produce.
type harness struct {
	t      *testing.T
	lg     *Log
	states map[string]adt.State
	n      int64
}

func newHarness(t *testing.T, lg *Log) *harness {
	return &harness{t: t, lg: lg, states: make(map[string]adt.State)}
}

func (h *harness) register(name string, init adt.State) {
	h.t.Helper()
	if err := h.lg.AppendApply(Record{Register: &RegisterRecord{Name: name, Initial: init}}, nil); err != nil {
		h.t.Fatalf("register %s: %v", name, err)
	}
	h.states[name] = init
}

// commit appends one single-effect commit record applying op to obj.
func (h *harness) commit(obj string, op adt.Op) {
	h.t.Helper()
	next, v := op.Apply(h.states[obj])
	h.states[obj] = next
	h.n++
	rec := Record{Commit: &CommitRecord{
		TID:     "T0.0",
		Value:   int64(1),
		Effects: []Effect{{Obj: obj, Op: op, Val: v}},
	}}
	if err := h.lg.AppendApply(rec, nil); err != nil {
		h.t.Fatalf("commit %d: %v", h.n, err)
	}
}

// capture is a checkpoint capture of the harness's shadow states.
func (h *harness) capture(next uint64) Cut {
	return Cut{LSN: next, States: sorted(h.states)}
}

// mapCapture is a checkpoint capture of the states states returns, at the
// log's next LSN.
func mapCapture(states func() map[string]adt.State) Capture {
	return func(next uint64) Cut {
		return Cut{LSN: next, States: sorted(states())}
	}
}

func mustOpen(t *testing.T, fs FS, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	opts.FS = fs
	lg, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return lg, rec
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	fs := NewMemFS()
	lg, rec := mustOpen(t, fs, "d", Options{})
	if got := len(rec.Records); got != 0 {
		t.Fatalf("fresh dir recovered %d records", got)
	}
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	h.register("reg", adt.NewRegister(int64(0)))
	for i := 0; i < 10; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
		h.commit("reg", adt.RegWrite{V: int64(i)})
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	lg2, rec2 := mustOpen(t, fs, "d", Options{})
	defer lg2.Close()
	if got := len(rec2.Records); got != 22 {
		t.Fatalf("recovered %d records, want 22", got)
	}
	if rec2.NextLSN != 22 {
		t.Fatalf("NextLSN = %d, want 22", rec2.NextLSN)
	}
	if !reflect.DeepEqual(rec2.States(), h.states) {
		t.Fatalf("states = %v, want %v", rec2.States(), h.states)
	}
	if err := certify(rec2); err != nil {
		t.Fatalf("certify: %v", err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 5; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 2})
	}
	stats := lg.Stats()
	lg.Close()

	// Simulate a torn final write: half a frame of garbage on the tail.
	f, err := fs.OpenFile(filepath.Join("d", stats.Segment), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("137 deadbeef\n{\"lsn\":6,\"k\":\"com"))
	f.Close()

	lg2, rec := mustOpen(t, fs, "d", Options{})
	if len(rec.Records) != 6 {
		t.Fatalf("recovered %d records, want 6", len(rec.Records))
	}
	if rec.TornBytes == 0 {
		t.Fatalf("TornBytes = 0, want > 0")
	}
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
	// The truncation is physical: a third scan sees a clean log.
	lg2.Close()
	_, rec3 := mustOpen(t, fs, "d", Options{})
	if rec3.TornBytes != 0 || len(rec3.Records) != 6 {
		t.Fatalf("after truncation: torn=%d records=%d, want 0/6", rec3.TornBytes, len(rec3.Records))
	}
}

func TestBadCRCTruncatesAndDropsLaterSegments(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{SegmentBytes: 256})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 20; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	lg.Close()

	segs, _ := fs.ReadDir("d")
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %v", segs)
	}
	// Flip a byte mid-way through the second segment.
	second := segs[1]
	size, _ := fs.Size(filepath.Join("d", second))
	if err := fs.Corrupt(filepath.Join("d", second), size/2); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, fs, "d", Options{SegmentBytes: 256})
	if len(rec.Records) >= 21 {
		t.Fatalf("corruption not detected: %d records", len(rec.Records))
	}
	if len(rec.Dropped) == 0 {
		t.Fatalf("later segments not dropped")
	}
	// The surviving prefix still verifies, and its redo matches a counter
	// incremented once per surviving commit.
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
	commits := 0
	for _, r := range rec.Records {
		if r.Commit != nil {
			commits++
		}
	}
	if got := rec.States()["ctr"].(adt.Counter).N; got != int64(commits) {
		t.Fatalf("ctr = %d, want %d", got, commits)
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	fs := NewMemFS()
	met := &obs.Metrics{}
	lg, _ := mustOpen(t, fs, "d", Options{Metrics: met})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 8; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	if err := lg.Checkpoint(mapCapture(func() map[string]adt.State {
		return map[string]adt.State{"ctr": h.states["ctr"]}
	})); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 3; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	lg.Close()

	if got := met.WalCheckpoints.Load(); got != 1 {
		t.Fatalf("checkpoint counter = %d, want 1", got)
	}
	if got := met.WalCheckpointLSN.Load(); got != 9 {
		t.Fatalf("checkpoint LSN gauge = %d, want 9", got)
	}

	_, rec := mustOpen(t, fs, "d", Options{})
	if rec.CheckpointLSN != 9 {
		t.Fatalf("CheckpointLSN = %d, want 9", rec.CheckpointLSN)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d post-checkpoint records, want 3", len(rec.Records))
	}
	if got := rec.States()["ctr"].(adt.Counter).N; got != 11 {
		t.Fatalf("ctr = %d, want 11", got)
	}
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
}

// TestCheckpointOnTheRealFileSystem: a checkpoint in a real directory,
// through the default file system's Rename and SyncDir, leaves the same
// files and recovers the same states and checkpoint LSN as the same
// records checkpointed on a MemFS.
func TestCheckpointOnTheRealFileSystem(t *testing.T) {
	type outcome struct {
		before, after []string
		lsn           uint64
		states        map[string]adt.State
	}
	run := func(fs FS, dir string) outcome {
		var o outcome
		list := func() []string {
			var ls FS = OSFS{} // what nil opens
			if fs != nil {
				ls = fs
			}
			names, err := ls.ReadDir(dir)
			if err != nil {
				t.Fatalf("ReadDir: %v", err)
			}
			return names
		}
		lg, _ := mustOpen(t, fs, dir, Options{SegmentBytes: 256})
		h := newHarness(t, lg)
		h.register("ctr", adt.Counter{})
		for i := 0; i < 20; i++ {
			h.commit("ctr", adt.CtrAdd{Delta: 1})
		}
		o.before = list()
		if err := lg.Checkpoint(h.capture); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if err := lg.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		o.after = list()
		lg2, rec := mustOpen(t, fs, dir, Options{SegmentBytes: 256})
		defer lg2.Close()
		o.lsn, o.states = rec.CheckpointLSN, rec.States()
		if !reflect.DeepEqual(o.states, h.states) {
			t.Fatalf("recovered %v, want %v", o.states, h.states)
		}
		return o
	}
	mem := run(NewMemFS(), "d")
	osfs := run(nil, t.TempDir())
	if len(mem.before) < 3 || len(mem.after) >= len(mem.before) {
		t.Fatalf("MemFS files %v before the checkpoint, %v after: want sealed segments removed", mem.before, mem.after)
	}
	if mem.lsn != 21 {
		t.Fatalf("MemFS CheckpointLSN = %d, want 21", mem.lsn)
	}
	if !reflect.DeepEqual(osfs, mem) {
		t.Fatalf("real directory %+v, MemFS %+v", osfs, mem)
	}
}

// TestCheckpointLargerThanARecordRecovers: a checkpoint file is one frame
// bounded only by its own size, so a checkpoint larger than any record
// may be — here with the record bound lowered to 1 KiB — recovers, and
// with it the log whose older segments it replaced.
func TestCheckpointLargerThanARecordRecovers(t *testing.T) {
	defer func(n int) { maxRecordSize = n }(maxRecordSize)
	maxRecordSize = 1 << 10
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{SegmentBytes: 512})
	h := newHarness(t, lg)
	for i := 0; i < 64; i++ {
		h.register(fmt.Sprintf("an-object-with-a-long-name-%02d", i), adt.Counter{})
	}
	h.commit("an-object-with-a-long-name-07", adt.CtrAdd{Delta: 7})
	lsn := lg.Stats().NextLSN
	if err := lg.Checkpoint(h.capture); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	h.commit("an-object-with-a-long-name-09", adt.CtrAdd{Delta: 9})
	lg.Close()
	size, _ := fs.Size(filepath.Join("d", checkpointName(lsn)))
	if size <= int64(maxRecordSize) {
		t.Fatalf("checkpoint is %d B, want more than the %d B record bound", size, maxRecordSize)
	}
	t.Logf("checkpoint of %d B against a %d B record bound", size, maxRecordSize)

	_, rec := mustOpen(t, fs, "d", Options{SegmentBytes: 512})
	if rec.CheckpointLSN != lsn || len(rec.Records) != 1 || len(rec.Dropped) != 0 {
		t.Fatalf("recovered checkpoint %d, %d records, dropped %v; want checkpoint %d, 1 record, none dropped",
			rec.CheckpointLSN, len(rec.Records), rec.Dropped, lsn)
	}
	if !reflect.DeepEqual(rec.States(), h.states) {
		t.Fatalf("states = %v, want %v", rec.States(), h.states)
	}
	onDisk, err := readWhole(fs, filepath.Join("d", checkpointName(lsn)))
	if err != nil {
		t.Fatal(err)
	}
	if got, file, err := ReadCheckpoint("d", fs); err != nil || got != lsn || !bytes.Equal(file, onDisk) {
		t.Fatalf("ReadCheckpoint = %d with %d B, %v; want %d with the %d B file", got, len(file), err, lsn, len(onDisk))
	}
}

// TestTrailingCutLeavesItsSegmentsCounted: a cut may trail the log by
// whole segments, as a follower's does: it cuts at its replay position,
// up to a replicated batch behind its log. The sealed segments above the
// cut stay for the redo, so they still count toward the next checkpoint:
// the next rotation starts one, and a restart redoes no more than the
// policy's volume plus the active segment.
func TestTrailingCutLeavesItsSegmentsCounted(t *testing.T) {
	const seg = 512
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{SegmentBytes: seg})
	// One counter, registered at LSN 0 and bumped once per record after.
	at := func(lsn uint64) Cut {
		return Cut{LSN: lsn, States: sorted(map[string]adt.State{"ctr": adt.Counter{N: int64(lsn) - 1}})}
	}
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	h.commit("ctr", adt.CtrAdd{Delta: 1})
	trail := lg.Stats().NextLSN
	// rotate commits until the log has moved to a new segment n times.
	rotate := func(n int) {
		for i := 0; i < n; i++ {
			for active := lg.Stats().Segment; lg.Stats().Segment == active; {
				h.commit("ctr", adt.CtrAdd{Delta: 1})
			}
		}
	}
	rotate(8)
	if err := lg.Checkpoint(func(uint64) Cut { return at(trail) }); err != nil {
		t.Fatalf("trailing checkpoint: %v", err)
	}
	lg.AutoCheckpoint(at)
	rotate(1)
	lg.mu.Lock()
	started := lg.autoRunning || lg.ckptLSN > trail
	lg.mu.Unlock()
	if !started {
		t.Fatalf("no checkpoint started with 8 sealed segments above the trailing cut at %d still to redo", trail)
	}
	waitFor(t, "the checkpoint at the log's end", func() bool { return lg.Stats().CheckpointLSN > trail })
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Inspect("d", fs)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := fs.Size(filepath.Join("d", checkpointName(rec.CheckpointLSN)))
	var redo int64
	for _, s := range rec.Segments() {
		redo += s.Size
	}
	if bound := max(4*seg, ckpt) + seg; redo > bound {
		t.Fatalf("restart redoes %d B of log, bound %d B", redo, bound)
	}
}

// TestCorruptionBelowTheCheckpointKeepsWhatIsAbove: a checkpoint leaves
// the active segment in place, records below it and all. A flipped byte
// among those records is skipped over: recovery and a tailer both resume
// at the checkpoint's own record, and every commit above it is kept.
func TestCorruptionBelowTheCheckpointKeepsWhatIsAbove(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 8; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	below := lg.Stats().SegmentBytes
	if err := lg.Checkpoint(h.capture); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 3; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	seg := lg.Stats().Segment
	lg.Close()
	if err := fs.Corrupt(filepath.Join("d", seg), below/2); err != nil {
		t.Fatal(err)
	}

	tl := NewTailer("d", fs, 9)
	if recs, err := tl.Next(0, 0); err != nil || len(recs) != 3 || recs[0].LSN != 9 {
		t.Fatalf("tailer from the checkpoint read %d records, %v; want 3 from LSN 9", len(recs), err)
	}
	for reopen := 0; reopen < 2; reopen++ {
		lg, rec := mustOpen(t, fs, "d", Options{})
		if rec.CheckpointLSN != 9 || len(rec.Records) != 3 || rec.TornBytes != 0 || len(rec.Dropped) != 0 {
			t.Fatalf("reopen %d: checkpoint %d, %d records, torn %d B, dropped %v; want 9, 3, 0, none",
				reopen, rec.CheckpointLSN, len(rec.Records), rec.TornBytes, rec.Dropped)
		}
		if got := rec.States()["ctr"].(adt.Counter).N; got != 11 {
			t.Fatalf("reopen %d: ctr = %d, want 11", reopen, got)
		}
		if err := certify(rec); err != nil {
			t.Fatalf("reopen %d: certify: %v", reopen, err)
		}
		lg.Close()
	}
}

// TestCorruptSegmentBelowTheCheckpointIsNotRead: a segment wholly below
// the checkpoint that outlived it — a crash between the checkpoint's
// rename and its removals — is not read, so bit rot in it costs nothing.
func TestCorruptSegmentBelowTheCheckpointIsNotRead(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{SegmentBytes: 256})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 20; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	first := filepath.Join("d", segmentName(0))
	kept, err := readWhole(fs, first)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint(h.capture); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	h.commit("ctr", adt.CtrAdd{Delta: 1})
	lg.Close()
	if _, err := fs.Size(first); err == nil {
		t.Fatalf("%s survived the checkpoint", first)
	}
	if err := writeFile(fs, first, kept); err != nil {
		t.Fatal(err)
	}
	if err := fs.Corrupt(first, 3); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, fs, "d", Options{SegmentBytes: 256})
	if rec.CheckpointLSN != 21 || len(rec.Records) != 1 || len(rec.Dropped) != 0 || rec.TornBytes != 0 {
		t.Fatalf("checkpoint %d, %d records, dropped %v, torn %d B; want 21, 1, none, 0",
			rec.CheckpointLSN, len(rec.Records), rec.Dropped, rec.TornBytes)
	}
	if got := rec.States()["ctr"].(adt.Counter).N; got != 21 {
		t.Fatalf("ctr = %d, want 21", got)
	}
}

// parkTmpFS parks the first write to a checkpoint's temporary file until
// release is closed, closing entered when it does.
type parkTmpFS struct {
	FS
	entered, release chan struct{}
	once             sync.Once
}

func (fs *parkTmpFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err == nil && strings.HasPrefix(filepath.Base(name), "ckpt-") && strings.HasSuffix(name, ".tmp") {
		return parkedWrites{f, fs}, nil
	}
	return f, err
}

type parkedWrites struct {
	File
	fs *parkTmpFS
}

func (w parkedWrites) Write(p []byte) (int, error) {
	w.fs.once.Do(func() { close(w.fs.entered) })
	<-w.fs.release
	return w.File.Write(p)
}

// TestCloseWaitsForACheckpointInProgress: a checkpoint that is writing its
// file when Close is called finishes — renames its file and removes what
// it replaced — before Close returns, and one started after Close fails.
func TestCloseWaitsForACheckpointInProgress(t *testing.T) {
	mem := NewMemFS()
	fs := &parkTmpFS{FS: mem, entered: make(chan struct{}), release: make(chan struct{})}
	lg, _ := mustOpen(t, fs, "d", Options{})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	h.commit("ctr", adt.CtrAdd{Delta: 1})
	ckpt := make(chan error, 1)
	go func() { ckpt <- lg.Checkpoint(h.capture) }()
	select {
	case <-fs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the checkpoint never wrote its file")
	}
	closed := make(chan error, 1)
	go func() { closed <- lg.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a checkpoint was writing its file", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(fs.release)
	if err := <-ckpt; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := lg.Checkpoint(h.capture); err == nil {
		t.Fatal("a checkpoint after Close succeeded")
	}
	_, rec := mustOpen(t, mem, "d", Options{})
	if rec.CheckpointLSN != 2 || len(rec.Records) != 0 {
		t.Fatalf("recovered checkpoint %d with %d records, want 2 with none", rec.CheckpointLSN, len(rec.Records))
	}
}

func TestSegmentRotationRecoversAll(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{SegmentBytes: 200})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 30; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	lg.Close()
	segs, _ := fs.ReadDir("d")
	if len(segs) < 4 {
		t.Fatalf("rotation produced only %d files: %v", len(segs), segs)
	}
	_, rec := mustOpen(t, fs, "d", Options{SegmentBytes: 200})
	if len(rec.Records) != 31 {
		t.Fatalf("recovered %d records, want 31", len(rec.Records))
	}
	if got := rec.States()["ctr"].(adt.Counter).N; got != 30 {
		t.Fatalf("ctr = %d, want 30", got)
	}
}

func TestAppendErrorFailsNotAcks(t *testing.T) {
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
	// The log is latched broken: later appends fail fast too.
	if err := lg.AppendApply(Record{Register: &RegisterRecord{Name: "x", Initial: adt.Counter{}}}, nil); err == nil {
		t.Fatalf("append after latched failure succeeded")
	}
	lg.Close()

	// Recovery sees only the acknowledged prefix.
	_, rec := mustOpen(t, mem, "d", Options{})
	if got := rec.States()["ctr"].(adt.Counter).N; got != 1 {
		t.Fatalf("ctr = %d, want 1 (unacked append must not replay)", got)
	}
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	// A slow device is what makes commits pile up behind the in-flight
	// fsync; the next flush must retire them together.
	fs := NewFaultFS(NewMemFS())
	fs.SetSyncDelay(2 * time.Millisecond)
	met := &obs.Metrics{}
	lg, _ := mustOpen(t, fs, "d", Options{Metrics: met})
	if err := lg.AppendApply(Record{Register: &RegisterRecord{Name: "reg", Initial: adt.NewRegister(int64(0))}}, nil); err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Value intentionally unchecked by redo here? No — redo
				// verifies values, so use a blind write whose value is
				// its own operand.
				v := int64(w*per + i)
				rec := Record{Commit: &CommitRecord{TID: "T0.1", Value: v,
					Effects: []Effect{{Obj: "reg", Op: adt.RegWrite{V: v}, Val: v}}}}
				if err := lg.AppendApply(rec, nil); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	lg.Close()
	appends, fsyncs := met.WalAppends.Load(), met.WalFsyncs.Load()
	if appends != writers*per+1 {
		t.Fatalf("appends = %d, want %d", appends, writers*per+1)
	}
	if fsyncs >= appends {
		t.Fatalf("no batching: %d fsyncs for %d appends", fsyncs, appends)
	}
	if met.WalMaxBatch.Load() < 2 {
		t.Fatalf("max batch = %d, want >= 2", met.WalMaxBatch.Load())
	}
	// Concurrent blind writes commute on the automaton only in log
	// order; recovery must accept whatever order the log serialised.
	_, rec := mustOpen(t, fs, "d", Options{})
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
}

func TestInspectIsReadOnly(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	h.commit("ctr", adt.CtrAdd{Delta: 1})
	stats := lg.Stats()
	lg.Close()

	f, _ := fs.OpenFile(filepath.Join("d", stats.Segment), os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte("torn"))
	f.Close()
	before, _ := fs.Size(filepath.Join("d", stats.Segment))

	rec, err := Inspect("d", fs)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if rec.TornBytes == 0 || len(rec.Records) != 2 {
		t.Fatalf("inspect: torn=%d records=%d", rec.TornBytes, len(rec.Records))
	}
	after, _ := fs.Size(filepath.Join("d", stats.Segment))
	if before != after {
		t.Fatalf("Inspect mutated the segment: %d -> %d bytes", before, after)
	}
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
}

package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"nestedtx/internal/adt"
)

func mustNext(t *testing.T, tail *Tailer, maxRecords, maxBytes int) []Record {
	t.Helper()
	recs, err := tail.Next(maxRecords, maxBytes)
	if err != nil {
		t.Fatalf("tail.Next: %v", err)
	}
	return recs
}

func TestTailerFollowsLiveAppends(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{})
	defer lg.Close()
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})

	tail := NewTailer("d", fs, 0)
	recs := mustNext(t, tail, 0, 0)
	if len(recs) != 1 || recs[0].Register == nil || recs[0].LSN != 0 {
		t.Fatalf("first read = %+v, want the register record at LSN 0", recs)
	}

	for i := 0; i < 5; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	recs = mustNext(t, tail, 0, 0)
	if len(recs) != 5 {
		t.Fatalf("tail read %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Commit == nil {
			t.Fatalf("record %d = %+v, want commit at LSN %d", i, r, i+1)
		}
	}
	if recs = mustNext(t, tail, 0, 0); len(recs) != 0 {
		t.Fatalf("caught-up tail returned %d records", len(recs))
	}
	if got := tail.NextLSN(); got != 6 {
		t.Fatalf("NextLSN = %d, want 6", got)
	}
}

func TestTailerFollowsRotation(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{SegmentBytes: 256})
	defer lg.Close()
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 30; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	if segs, _ := fs.ReadDir("d"); len(segs) < 2 {
		t.Fatalf("expected multiple segments, have %v", segs)
	}

	tail := NewTailer("d", fs, 0)
	var got []Record
	for {
		recs := mustNext(t, tail, 7, 0) // small batches so reads straddle segments
		if len(recs) == 0 {
			break
		}
		got = append(got, recs...)
	}
	if len(got) != 31 {
		t.Fatalf("tailed %d records across rotations, want 31", len(got))
	}
	for i, r := range got {
		if r.LSN != uint64(i) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

func TestTailerStartsMidSegment(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{})
	defer lg.Close()
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 9; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	tail := NewTailer("d", fs, 5)
	recs := mustNext(t, tail, 0, 0)
	if len(recs) != 5 || recs[0].LSN != 5 || recs[4].LSN != 9 {
		t.Fatalf("mid-segment tail from 5 read %d records starting %d", len(recs), recs[0].LSN)
	}
}

func TestTailerTruncatedByCheckpoint(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{SegmentBytes: 512})
	defer lg.Close()
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 9; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	// A caught-up tailer rides through the truncation: it is in the active
	// segment, which a checkpoint never removes — only the segments wholly
	// below its LSN go.
	tail := NewTailer("d", fs, 0)
	if recs := mustNext(t, tail, 0, 0); len(recs) != 10 {
		t.Fatalf("pre-checkpoint tail read %d records, want 10", len(recs))
	}
	if err := lg.Checkpoint(h.capture); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if recs := mustNext(t, tail, 0, 0); len(recs) != 0 {
		t.Fatalf("caught-up tail read %d records across the checkpoint", len(recs))
	}

	// A tailer behind the low-water mark must be told to resync.
	if _, err := NewTailer("d", fs, 3).Next(0, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("tail below low-water: err = %v, want ErrTruncated", err)
	}
	// From the checkpoint LSN onward, tailing resumes.
	resumed := NewTailer("d", fs, lg.Stats().CheckpointLSN)
	if recs := mustNext(t, resumed, 0, 0); len(recs) != 0 {
		t.Fatalf("resumed tail read %d records from the checkpoint LSN on", len(recs))
	}
	h.commit("ctr", adt.CtrAdd{Delta: 1})
	recs := mustNext(t, resumed, 0, 0)
	if len(recs) != 1 || recs[0].LSN != 10 {
		t.Fatalf("post-checkpoint tail = %+v, want one record at LSN 10", recs)
	}
}

func TestAppendBatchMirrorsLeader(t *testing.T) {
	fs := NewMemFS()
	leader, _ := mustOpen(t, fs, "leader", Options{})
	h := newHarness(t, leader)
	h.register("ctr", adt.Counter{})
	h.register("reg", adt.NewRegister(int64(0)))
	for i := 0; i < 10; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 2})
		h.commit("reg", adt.RegWrite{V: int64(i)})
	}

	follower, _ := mustOpen(t, fs, "follower", Options{})
	tail := NewTailer("leader", fs, 0)
	for {
		recs := mustNext(t, tail, 4, 0)
		if len(recs) == 0 {
			break
		}
		if err := follower.AppendBatch(recs); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
	}
	// A non-contiguous batch is refused.
	gap := Record{LSN: follower.Stats().NextLSN + 1,
		Register: &RegisterRecord{Name: "x", Initial: adt.Counter{}}}
	if err := follower.AppendBatch([]Record{gap}); err == nil {
		t.Fatal("AppendBatch accepted an LSN gap")
	}
	if err := leader.Close(); err != nil {
		t.Fatalf("close leader: %v", err)
	}
	if err := follower.Close(); err != nil {
		t.Fatalf("close follower: %v", err)
	}

	lrec, err := Inspect("leader", fs)
	if err != nil {
		t.Fatalf("inspect leader: %v", err)
	}
	frec, err := Inspect("follower", fs)
	if err != nil {
		t.Fatalf("inspect follower: %v", err)
	}
	if lrec.NextLSN != frec.NextLSN {
		t.Fatalf("follower NextLSN %d != leader %d", frec.NextLSN, lrec.NextLSN)
	}
	if !reflect.DeepEqual(lrec.States(), frec.States()) {
		t.Fatalf("follower states %v != leader states %v", frec.States(), lrec.States())
	}
	if err := certify(frec); err != nil {
		t.Fatalf("follower history does not certify: %v", err)
	}
}

// snapshotFile returns the checkpoint file of states at lsn.
func snapshotFile(t *testing.T, lsn uint64, states map[string]adt.State) []byte {
	t.Helper()
	file, err := encodeCheckpoint(nil, lsn, sorted(states))
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// TestInstallSnapshot: a follower installs the leader's checkpoint file
// as written — its own checkpoint is byte for byte the leader's — and
// resumes at its LSN. A file that is not one whole checkpoint frame, or
// one behind the log, is refused before any file is touched.
func TestInstallSnapshot(t *testing.T) {
	fs := NewMemFS()
	leader, _ := mustOpen(t, fs, "leader", Options{})
	h := newHarness(t, leader)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 7; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	if err := leader.Checkpoint(h.capture); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ckpt, file, err := ReadCheckpoint("leader", fs)
	if err != nil || ckpt != leader.Stats().CheckpointLSN {
		t.Fatalf("ReadCheckpoint = %d, %v; want the leader's checkpoint at %d", ckpt, err, leader.Stats().CheckpointLSN)
	}

	follower, _ := mustOpen(t, fs, "follower", Options{})
	fh := newHarness(t, follower)
	fh.register("other", adt.Counter{})
	before := follower.Stats()
	for name, bad := range map[string][]byte{
		"a flipped byte": append(append([]byte{}, file[:len(file)-3]...), file[len(file)-3]^1, file[len(file)-2], file[len(file)-1]),
		"a torn frame":   file[:len(file)-1],
		"a second frame": append(append([]byte{}, file...), file...),
		"not a checkpoint": func() []byte {
			b, _ := EncodeFrame(nil, Record{LSN: ckpt, Register: &RegisterRecord{Name: "x", Initial: adt.Counter{}}})
			return b
		}(),
	} {
		if _, err := follower.InstallSnapshot(bad); err == nil {
			t.Fatalf("InstallSnapshot accepted %s", name)
		}
	}
	if got := follower.Stats(); got != before {
		t.Fatalf("refused installs moved the log: %+v, was %+v", got, before)
	}
	states, err := follower.InstallSnapshot(file)
	if err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if !reflect.DeepEqual(states, h.states) {
		t.Fatalf("installed states %v, want %v", states, h.states)
	}
	if got := follower.Stats(); got.NextLSN != ckpt || got.CheckpointLSN != ckpt || got.DurableLSN != ckpt {
		t.Fatalf("post-install stats = %+v, want all marks at %d", got, ckpt)
	}
	if _, got, err := ReadCheckpoint("follower", fs); err != nil || !bytes.Equal(got, file) {
		t.Fatalf("follower's checkpoint (%v) differs from the leader's", err)
	}
	// Going backwards is refused.
	if _, err := follower.InstallSnapshot(snapshotFile(t, ckpt-1, h.states)); err == nil {
		t.Fatal("InstallSnapshot accepted a position behind the log")
	}
	// Streaming resumes at the snapshot LSN.
	h2 := &harness{t: t, lg: leader, states: h.states}
	h2.commit("ctr", adt.CtrAdd{Delta: 5})
	recs := mustNext(t, NewTailer("leader", fs, ckpt), 0, 0)
	if len(recs) != 1 || recs[0].LSN != ckpt {
		t.Fatalf("post-snapshot tail = %+v, want one record at LSN %d", recs, ckpt)
	}
	if err := follower.AppendBatch(recs); err != nil {
		t.Fatalf("AppendBatch after snapshot: %v", err)
	}
	follower.Close()
	leader.Close()

	frec, err := Inspect("follower", fs)
	if err != nil {
		t.Fatalf("inspect follower: %v", err)
	}
	if frec.NextLSN != ckpt+1 || !reflect.DeepEqual(frec.States(), h.states) {
		t.Fatalf("recovered follower: NextLSN %d states %v, want %d %v",
			frec.NextLSN, frec.States(), ckpt+1, h.states)
	}
}

func TestDurableLSNAndWatch(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{})
	defer lg.Close()
	ch := lg.Watch()
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	if got := lg.DurableLSN(); got != 1 {
		t.Fatalf("DurableLSN after acked append = %d, want 1", got)
	}
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("Watch channel not signalled by a durable append")
	}
	lg.Unwatch(ch)
	h.commit("ctr", adt.CtrAdd{Delta: 1})
	select {
	case <-ch:
		t.Fatal("Unwatched channel still signalled")
	default:
	}
}

func TestEncodeDecodeFrames(t *testing.T) {
	recs := []Record{
		{LSN: 4, Register: &RegisterRecord{Name: "r", Initial: adt.NewRegister(int64(1))}},
		{LSN: 5, Commit: &CommitRecord{TID: "T0.1", Value: int64(1),
			Effects: []Effect{{Obj: "r", Op: adt.RegWrite{V: int64(2)}, Val: int64(1)}}}},
	}
	var buf []byte
	for _, r := range recs {
		var err error
		if buf, err = EncodeFrame(buf, r); err != nil {
			t.Fatalf("EncodeFrame: %v", err)
		}
	}
	got, err := DecodeFrames(buf)
	if err != nil {
		t.Fatalf("DecodeFrames: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip = %+v, want %+v", got, recs)
	}
	// A flipped payload byte fails the checksum; a truncated buffer is
	// torn — both are corruption for a batch, not a tail.
	bad := append([]byte(nil), buf...)
	bad[len(bad)/2] ^= 0x40
	if _, err := DecodeFrames(bad); err == nil {
		t.Fatal("DecodeFrames accepted a corrupt frame")
	}
	if _, err := DecodeFrames(buf[:len(buf)-3]); err == nil {
		t.Fatal("DecodeFrames accepted a torn buffer")
	}
}

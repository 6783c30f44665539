package wal

import (
	"reflect"
	"strings"
	"testing"

	"nestedtx/internal/adt"
)

// Cold-boot edge cases: the states a follower's data directory can be in
// when it (re)joins a leader — empty, checkpoint-only, or with its
// newest segment set aside as corrupt — must all recover cleanly.

func TestColdBootEmptyDir(t *testing.T) {
	fs := NewMemFS()
	lg, rec := mustOpen(t, fs, "cold", Options{})
	if rec.NextLSN != 0 || len(rec.Records) != 0 || len(rec.States()) != 0 {
		t.Fatalf("empty-dir recovery = %+v, want pristine", rec)
	}
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	h.commit("ctr", adt.CtrAdd{Delta: 3})
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec2 := mustOpen(t, fs, "cold", Options{})
	if rec2.NextLSN != 2 || !reflect.DeepEqual(rec2.States(), h.states) {
		t.Fatalf("reopen after empty-dir boot: NextLSN %d states %v", rec2.NextLSN, rec2.States())
	}
	if err := certify(rec2); err != nil {
		t.Fatalf("certify: %v", err)
	}
}

func TestColdBootCheckpointWithZeroSegments(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "cold", Options{})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 5; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	if err := lg.Checkpoint(h.capture); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ckpt := lg.Stats().CheckpointLSN
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Remove every segment — all their records are below the checkpoint:
	// the dir now holds only the checkpoint file, as after a crash between
	// an installed snapshot's rename and its segment creation reaching the
	// directory.
	names, _ := fs.ReadDir("cold")
	for _, n := range names {
		if strings.HasSuffix(n, ".seg") {
			if err := fs.Remove("cold/" + n); err != nil {
				t.Fatalf("remove segment: %v", err)
			}
		}
	}

	lg2, rec := mustOpen(t, fs, "cold", Options{})
	if rec.NextLSN != ckpt || rec.CheckpointLSN != ckpt {
		t.Fatalf("checkpoint-only recovery: NextLSN %d CheckpointLSN %d, want %d", rec.NextLSN, rec.CheckpointLSN, ckpt)
	}
	if !reflect.DeepEqual(rec.States(), h.states) {
		t.Fatalf("checkpoint-only states = %v, want %v", rec.States(), h.states)
	}
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
	// The log is usable: a fresh segment was created at the checkpoint LSN.
	h2 := &harness{t: t, lg: lg2, states: rec.States()}
	h2.commit("ctr", adt.CtrAdd{Delta: 10})
	if err := lg2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec2 := mustOpen(t, fs, "cold", Options{})
	if rec2.NextLSN != ckpt+1 || !reflect.DeepEqual(rec2.States(), h2.states) {
		t.Fatalf("post-boot append lost: NextLSN %d states %v", rec2.NextLSN, rec2.States())
	}
}

func TestColdBootNewestSegmentCorrupt(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "cold", Options{SegmentBytes: 256})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 30; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := fs.ReadDir("cold")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var newest string
	var newestLSN uint64
	for _, n := range names {
		if lsn, ok := parseLSN(n, "wal-", ".seg"); ok && (newest == "" || lsn > newestLSN) {
			newest, newestLSN = n, lsn
		}
	}
	if newestLSN == 0 {
		t.Fatalf("workload produced a single segment; cannot stage the corruption (%v)", names)
	}
	// The whole newest segment was set aside by an earlier recovery (or an
	// operator): its records are gone, and boot must serve the surviving
	// prefix — never half of the corrupt file.
	if err := fs.Rename("cold/"+newest, "cold/"+newest+".corrupt"); err != nil {
		t.Fatalf("rename: %v", err)
	}

	lg2, rec := mustOpen(t, fs, "cold", Options{SegmentBytes: 256})
	if rec.NextLSN != newestLSN {
		t.Fatalf("recovery past a .corrupt segment: NextLSN %d, want %d", rec.NextLSN, newestLSN)
	}
	if err := certify(rec); err != nil {
		t.Fatalf("certify surviving prefix: %v", err)
	}
	for _, n := range rec.Dropped {
		if strings.HasSuffix(n, ".corrupt") {
			t.Fatalf("recovery re-adjudicated the .corrupt file %q", n)
		}
	}
	// Appends continue the surviving sequence.
	h2 := &harness{t: t, lg: lg2, states: rec.States()}
	h2.commit("ctr", adt.CtrAdd{Delta: 1})
	if got := lg2.Stats().NextLSN; got != newestLSN+1 {
		t.Fatalf("append after corrupt-segment boot got NextLSN %d, want %d", got, newestLSN+1)
	}
	lg2.Close()
}

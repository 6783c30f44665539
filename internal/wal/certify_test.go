package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/checker"
	"nestedtx/internal/core"
)

// raceEnabled is set under the race detector, which slows certification
// about threefold: timing bounds are for the plain build.
var raceEnabled bool

// certify machine-checks a recovered log the way its readers do: the
// serial schedule it renders, certified against its redo states.
func certify(r *Recovery) error {
	sched, st, err := r.Schedule()
	if err != nil {
		return err
	}
	return checker.Certify(sched, st, core.ReadWrite, r.States())
}

// TestTornLogCertifiesFlippedValueDoesNot: a torn tail is cut and the
// prefix certifies; a logged value flipped after the scan (on disk, redo
// would have refused it first) is still rejected, at M(X) replay.
func TestTornLogCertifiesFlippedValueDoesNot(t *testing.T) {
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{})
	h := newHarness(t, lg)
	h.register("ctr", adt.Counter{})
	for i := 0; i < 5; i++ {
		h.commit("ctr", adt.CtrAdd{Delta: 3})
	}
	seg := lg.Stats().Segment
	lg.Close()
	f, err := fs.OpenFile(filepath.Join("d", seg), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("137 deadbeef\n{\"lsn\":6,\"k\":\"com"))
	f.Close()

	rec, err := Inspect("d", fs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes == 0 || len(rec.Records) != 6 {
		t.Fatalf("torn=%d records=%d, want a torn tail after 6 records", rec.TornBytes, len(rec.Records))
	}
	if err := certify(rec); err != nil {
		t.Fatalf("torn log does not certify: %v", err)
	}
	rec.Records[3].Commit.Effects[0].Val = int64(-1)
	if err := certify(rec); err == nil || !strings.Contains(err.Error(), "M(ctr)") {
		t.Fatalf("flipped value: got %v, want a rejection at M(ctr)", err)
	}
}

// TestRecoveryCertifiesInLinearTime: a recovered log is its own serial
// witness, so certifying 100,000 records over 64 counters is one replay
// per object and one serial validation — seconds, where re-deriving a
// witness per transaction grows with records × events and takes hours.
func TestRecoveryCertifiesInLinearTime(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds a 100,000-record log; the bound is for the plain build")
	}
	const objects, records = 64, 100_000
	fs := NewMemFS()
	lg, _ := mustOpen(t, fs, "d", Options{})
	h := newHarness(t, lg)
	for i := 0; i < objects; i++ {
		h.register(fmt.Sprintf("c%d", i), adt.Counter{})
	}
	for i := objects; i < records; i++ {
		h.commit(fmt.Sprintf("c%d", i%objects), adt.CtrAdd{Delta: 1})
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Inspect("d", fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != records {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), records)
	}
	start := time.Now()
	if err := certify(rec); err != nil {
		t.Fatalf("certify: %v", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("certifying %d records took %v, want under 10 s", records, took)
	} else {
		t.Logf("certified %d records in %v", records, took)
	}
}

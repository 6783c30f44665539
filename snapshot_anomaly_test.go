package nestedtx

import (
	"errors"
	"testing"

	"nestedtx/internal/adt"
	"nestedtx/internal/checker"
	"nestedtx/internal/event"
	"nestedtx/internal/snap"
)

// snapHistory runs a small mixed workload under recording and returns
// the pieces CheckSnapshots consumes, for the corruption tests below.
func snapHistory(t *testing.T) (event.Schedule, *event.SystemType, []snap.PubEntry, []snap.TxEntry) {
	t.Helper()
	m := NewManager(WithRecording())
	m.MustRegister("x", Counter{})
	m.MustRegister("y", Counter{})
	for i := 0; i < 3; i++ {
		if err := m.Run(func(tx *Tx) error {
			if _, err := tx.Write("x", CtrAdd{Delta: 1}); err != nil {
				return err
			}
			_, err := tx.Write("y", CtrAdd{Delta: 2})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RunReadOnly(func(s *Snapshot) error {
		if _, err := s.Read("x", CtrGet{}); err != nil {
			return err
		}
		_, err := s.Read("y", CtrGet{})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return m.Schedule(), m.SystemType(), m.snap.Log(), m.snap.TxLog()
}

// wantAnomaly asserts that CheckSnapshots rejects the history with the
// given anomaly kind.
func wantAnomaly(t *testing.T, kind string, sched event.Schedule, st *event.SystemType, pubs []snap.PubEntry, txs []snap.TxEntry) {
	t.Helper()
	err := checker.CheckSnapshots(sched, st, pubs, txs)
	if err == nil {
		t.Fatalf("checker accepted a history with a planted %s anomaly", kind)
	}
	var a *checker.SnapshotAnomaly
	if !errors.As(err, &a) {
		t.Fatalf("got untyped error %v, want *SnapshotAnomaly", err)
	}
	if a.Kind != kind {
		t.Fatalf("classified as %q (%v), want %q", a.Kind, a, kind)
	}
}

func TestCheckSnapshotsAcceptsCleanHistory(t *testing.T) {
	sched, st, pubs, txs := snapHistory(t)
	if err := checker.CheckSnapshots(sched, st, pubs, txs); err != nil {
		t.Fatalf("clean history rejected: %v", err)
	}
}

func TestCheckSnapshotsClassifiesUnpublishedCommit(t *testing.T) {
	sched, st, pubs, txs := snapHistory(t)
	// Drop the last publication: its committed writes vanish from the
	// store without anything downstream noticing — unless checked.
	wantAnomaly(t, checker.AnomalyUnpublishedCommit, sched, st, pubs[:len(pubs)-1], txs)
}

func TestCheckSnapshotsClassifiesUncommittedPublication(t *testing.T) {
	sched, st, pubs, txs := snapHistory(t)
	forged := append(append([]snap.PubEntry(nil), pubs...), snap.PubEntry{
		Seq: pubs[len(pubs)-1].Seq + 1,
		Top: "T0.99", // never existed, never committed
		Updates: map[string]adt.State{
			"x": Counter{N: 77},
		},
	})
	wantAnomaly(t, checker.AnomalyUncommittedPublication, sched, st, forged, txs)
}

func TestCheckSnapshotsClassifiesPublicationOrder(t *testing.T) {
	sched, st, pubs, txs := snapHistory(t)
	if len(pubs) < 2 {
		t.Fatal("history too small")
	}
	// Swap the sequence numbers of the first two publications: the
	// store's order now contradicts the lock manager's conflict order.
	swapped := append([]snap.PubEntry(nil), pubs...)
	swapped[0].Seq, swapped[1].Seq = swapped[1].Seq, swapped[0].Seq
	wantAnomaly(t, checker.AnomalyPublicationOrder, sched, st, swapped, txs)
}

func TestCheckSnapshotsClassifiesVersionDivergence(t *testing.T) {
	sched, st, pubs, txs := snapHistory(t)
	corrupt := append([]snap.PubEntry(nil), pubs...)
	up := make(map[string]adt.State, len(corrupt[1].Updates))
	for x, s := range corrupt[1].Updates {
		up[x] = s
	}
	up["x"] = Counter{N: 1234} // torn version
	corrupt[1].Updates = up
	wantAnomaly(t, checker.AnomalyVersionDivergence, sched, st, corrupt, txs)
}

func TestCheckSnapshotsClassifiesSpuriousPublication(t *testing.T) {
	sched, st, pubs, txs := snapHistory(t)
	// A committed transaction is credited with a write it never made:
	// append a publication of x by the (real, committed) first top.
	forged := append(append([]snap.PubEntry(nil), pubs...), snap.PubEntry{
		Seq:     pubs[len(pubs)-1].Seq + 1,
		Top:     pubs[0].Top,
		Updates: map[string]adt.State{"x": Counter{N: 9}},
	})
	wantAnomaly(t, checker.AnomalySpuriousPublication, sched, st, forged, txs)
}

func TestCheckSnapshotsClassifiesInconsistentRead(t *testing.T) {
	sched, st, pubs, txs := snapHistory(t)
	if len(txs) != 1 || len(txs[0].Reads) == 0 {
		t.Fatal("expected one recorded snapshot transaction with reads")
	}
	// The reader claims a value the committed prefix at its pin cannot
	// produce (a dirty or future read).
	bad := snap.TxEntry{ID: txs[0].ID, Seq: txs[0].Seq}
	bad.Reads = append([]snap.ReadEntry(nil), txs[0].Reads...)
	bad.Reads[0] = snap.ReadEntry{Object: bad.Reads[0].Object, Op: bad.Reads[0].Op, Value: int64(424242)}
	wantAnomaly(t, checker.AnomalyInconsistentRead, sched, st, pubs, []snap.TxEntry{bad})
}

func TestCheckSnapshotsClassifiesNonReadOnlyOp(t *testing.T) {
	sched, st, pubs, txs := snapHistory(t)
	bad := snap.TxEntry{ID: "S-bad", Seq: txs[0].Seq, Reads: []snap.ReadEntry{
		{Object: "x", Op: CtrAdd{Delta: 1}, Value: int64(1)},
	}}
	wantAnomaly(t, checker.AnomalyNonReadOnlyOp, sched, st, pubs, []snap.TxEntry{bad})
}

// lyingReadOp claims to be read-only but mutates the state it is applied
// to — the equieffectiveness contract violation AnomalyMutatingRead is
// defined to catch.
type lyingReadOp struct{}

func (lyingReadOp) Apply(s adt.State) (adt.State, adt.Value) {
	return Counter{N: s.(Counter).N + 1}, s.(Counter).N
}
func (lyingReadOp) ReadOnly() bool { return true }
func (lyingReadOp) String() string { return "lying-read" }

func TestCheckSnapshotsClassifiesMutatingRead(t *testing.T) {
	sched, st, pubs, txs := snapHistory(t)
	bad := snap.TxEntry{ID: "S-bad", Seq: txs[0].Seq, Reads: []snap.ReadEntry{
		{Object: "x", Op: lyingReadOp{}, Value: int64(3)},
	}}
	wantAnomaly(t, checker.AnomalyMutatingRead, sched, st, pubs, []snap.TxEntry{bad})
}

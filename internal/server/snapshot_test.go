package server_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"testing"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/server"
	"nestedtx/internal/wal"
	"nestedtx/internal/wire"
)

// TestStateVerbNeverSeesUncommittedWrite is the wire-level STATE
// dirty-read regression: a remote writer holds a write lock with a
// tentative version, and a concurrent STATE from another session must
// answer the committed value — before the fix it answered the live
// writer's uncommitted (and here eventually aborted) write.
func TestStateVerbNeverSeesUncommittedWrite(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("x", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{})
	writer := dial(t, addr)
	reader := dial(t, addr)

	tx, err := writer.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := tx.Write("x", nestedtx.CtrAdd{Delta: 7}); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The writer now holds the write lock with tentative value 7.
	st, err := reader.State("x")
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	if got := st.(nestedtx.Counter).N; got != 0 {
		t.Fatalf("STATE observed a live writer's uncommitted version: got %d, want 0", got)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	st, err = reader.State("x")
	if err != nil {
		t.Fatalf("state after abort: %v", err)
	}
	if got := st.(nestedtx.Counter).N; got != 0 {
		t.Fatalf("STATE observed an aborted write: got %d, want 0", got)
	}
	if err := writer.Run(func(tx *client.Tx) error {
		_, err := tx.Write("x", nestedtx.CtrAdd{Delta: 3})
		return err
	}); err != nil {
		t.Fatalf("commit run: %v", err)
	}
	st, err = reader.State("x")
	if err != nil {
		t.Fatalf("state after commit: %v", err)
	}
	if got := st.(nestedtx.Counter).N; got != 3 {
		t.Fatalf("STATE after commit: got %d, want 3", got)
	}
	drainAndVerify(t, srv)
}

// TestRemoteReadOnlySnapshot drives a read-only snapshot transaction
// over the wire on a leader: the pin holds one consistent cut across
// concurrent commits, a fresh snapshot sees them, and the stats and
// metrics surfaces report the snapshot counters.
func TestRemoteReadOnlySnapshot(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("a", nestedtx.Counter{})
	mgr.MustRegister("b", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{})
	c := dial(t, addr)
	bump := func(delta int64) {
		t.Helper()
		if err := c.Run(func(tx *client.Tx) error {
			if _, err := tx.Write("a", nestedtx.CtrAdd{Delta: delta}); err != nil {
				return err
			}
			_, err := tx.Write("b", nestedtx.CtrAdd{Delta: -delta})
			return err
		}); err != nil {
			t.Fatalf("bump: %v", err)
		}
	}
	bump(10)

	s, err := c.BeginReadOnly()
	if err != nil {
		t.Fatalf("BeginReadOnly: %v", err)
	}
	if s.ID() == "" || s.Seq() == 0 {
		t.Fatalf("snapshot handle: id=%q seq=%d, want S-name and seq 1", s.ID(), s.Seq())
	}
	// Commits after the pin must stay invisible to this snapshot.
	bump(5)
	bump(7)
	va, err := s.Read("a", nestedtx.CtrGet{})
	if err != nil {
		t.Fatalf("snap read a: %v", err)
	}
	vb, err := s.Read("b", nestedtx.CtrGet{})
	if err != nil {
		t.Fatalf("snap read b: %v", err)
	}
	if va.(int64) != 10 || vb.(int64) != -10 {
		t.Fatalf("snapshot read a=%v b=%v, want 10/-10", va, vb)
	}
	// Client-side write rejection on a snapshot handle.
	if _, err := s.Read("a", nestedtx.CtrAdd{Delta: 1}); err == nil {
		t.Fatal("snapshot Read accepted a mutating op")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A fresh snapshot observes the later commits, consistently.
	if err := c.RunReadOnly(func(s2 *client.Snapshot) error {
		va, err := s2.Read("a", nestedtx.CtrGet{})
		if err != nil {
			return err
		}
		vb, err := s2.Read("b", nestedtx.CtrGet{})
		if err != nil {
			return err
		}
		if va.(int64) != 22 || vb.(int64) != -22 {
			return fmt.Errorf("fresh snapshot read a=%v b=%v, want 22/-22", va, vb)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	met, err := c.Metrics(false)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if met.SnapshotTxs != 2 {
		t.Fatalf("SnapshotTxs = %d, want 2", met.SnapshotTxs)
	}
	if met.SnapTxs != 2 || met.SnapReads != 4 || met.SnapPinned != 0 || met.SnapPublishes != 3 {
		t.Fatalf("snapshot metrics: txs=%d reads=%d pinned=%d publishes=%d, want 2/4/0/3",
			met.SnapTxs, met.SnapReads, met.SnapPinned, met.SnapPublishes)
	}
	// Verify must place both snapshot transactions at their pin points.
	drainAndVerify(t, srv)
}

// TestReadOnlyHandleRejectsWriteAndSub exercises the server-side verb
// rules on a snapshot handle over raw wire frames (the client refuses
// these client-side, so the server's own enforcement needs raw frames):
// WRITE answers read_only, SUB answers bad_request, READ of an unknown
// object answers bad_request, and COMMIT releases the handle.
func TestReadOnlyHandleRejectsWriteAndSub(t *testing.T) {
	mgr := nestedtx.NewManager()
	mgr.MustRegister("x", nestedtx.Counter{})
	_, addr := start(t, mgr, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	seq := uint64(0)
	roundTrip := func(req *wire.Request) *wire.Response {
		t.Helper()
		seq++
		req.Seq = seq
		if err := wire.WriteFrame(bw, req); err != nil {
			t.Fatalf("write frame: %v", err)
		}
		resp, err := wire.ReadResponse(br)
		if err != nil {
			t.Fatalf("read response: %v", err)
		}
		return resp
	}
	resp := roundTrip(&wire.Request{Type: wire.TBegin, ReadOnly: true})
	if !resp.OK || resp.Tx == 0 {
		t.Fatalf("read-only BEGIN failed: %+v", resp)
	}
	h := resp.Tx
	add, err := wire.EncodeOp(nestedtx.CtrAdd{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	get, err := wire.EncodeOp(nestedtx.CtrGet{})
	if err != nil {
		t.Fatal(err)
	}
	if resp := roundTrip(&wire.Request{Type: wire.TWrite, Tx: h, Obj: "x", Op: add}); resp.OK || resp.Code != wire.CodeReadOnly {
		t.Fatalf("WRITE on snapshot handle: %+v, want code %q", resp, wire.CodeReadOnly)
	}
	if resp := roundTrip(&wire.Request{Type: wire.TSub, Tx: h}); resp.OK || resp.Code != wire.CodeBadRequest {
		t.Fatalf("SUB on snapshot handle: %+v, want code %q", resp, wire.CodeBadRequest)
	}
	// READ with a mutating op is refused even on the read path.
	if resp := roundTrip(&wire.Request{Type: wire.TRead, Tx: h, Obj: "x", Op: add}); resp.OK || resp.Code != wire.CodeBadRequest {
		t.Fatalf("READ with mutating op: %+v, want code %q", resp, wire.CodeBadRequest)
	}
	if resp := roundTrip(&wire.Request{Type: wire.TRead, Tx: h, Obj: "nope", Op: get}); resp.OK || resp.Code != wire.CodeBadRequest {
		t.Fatalf("READ of unknown object: %+v, want code %q", resp, wire.CodeBadRequest)
	}
	if resp := roundTrip(&wire.Request{Type: wire.TRead, Tx: h, Obj: "x", Op: get}); !resp.OK {
		t.Fatalf("READ on snapshot handle failed: %+v", resp)
	}
	if resp := roundTrip(&wire.Request{Type: wire.TCommit, Tx: h}); !resp.OK {
		t.Fatalf("COMMIT of snapshot handle failed: %+v", resp)
	}
	// The handle is gone; a second COMMIT is an unknown transaction.
	if resp := roundTrip(&wire.Request{Type: wire.TCommit, Tx: h}); resp.OK || resp.Code != wire.CodeUnknownTx {
		t.Fatalf("COMMIT of released snapshot handle: %+v, want code %q", resp, wire.CodeUnknownTx)
	}
}

// TestFollowerServesSnapshotTransactions: a follower refuses locking
// transactions but serves read-only snapshot ones from its replicated
// version store, with the same consistent-cut guarantee.
func TestFollowerServesSnapshotTransactions(t *testing.T) {
	fs := wal.NewMemFS()
	mgr, _, leaderAddr := startLeader(t, fs, "leader")
	mgr.MustRegister("a", nestedtx.Counter{})
	mgr.MustRegister("b", nestedtx.Counter{})
	_, f, followerAddr := startFollower(t, fs, "follower", leaderAddr)

	for i := 0; i < 5; i++ {
		if err := mgr.Run(func(tx *nestedtx.Tx) error {
			if _, err := tx.Write("a", nestedtx.CtrAdd{Delta: 1}); err != nil {
				return err
			}
			_, err := tx.Write("b", nestedtx.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			t.Fatalf("leader commit: %v", err)
		}
	}
	waitUntil(t, "follower caught up", func() bool { return caughtUpState(f, mgr, "a", 5) })

	c := dial(t, followerAddr)
	// Locking transactions are still refused...
	err := c.Run(func(tx *client.Tx) error { return nil })
	if !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("locking Run on follower: %v, want ErrReadOnly", err)
	}
	// ...but snapshot transactions are served, and see a consistent cut.
	if err := c.RunReadOnly(func(s *client.Snapshot) error {
		va, err := s.Read("a", nestedtx.CtrGet{})
		if err != nil {
			return err
		}
		vb, err := s.Read("b", nestedtx.CtrGet{})
		if err != nil {
			return err
		}
		if va.(int64) != vb.(int64) {
			return fmt.Errorf("torn follower snapshot: a=%v b=%v", va, vb)
		}
		if va.(int64) != 5 {
			return fmt.Errorf("follower snapshot read a=%v, want 5", va)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	met, err := c.Metrics(false)
	if err != nil {
		t.Fatalf("follower metrics: %v", err)
	}
	if met.SnapshotTxs != 1 {
		t.Fatalf("follower SnapshotTxs = %d, want 1", met.SnapshotTxs)
	}
	if met.SnapTxs != 1 || met.SnapReads != 2 || met.SnapPinned != 0 || met.SnapPublishes != 5 {
		t.Fatalf("follower snapshot metrics: txs=%d reads=%d pinned=%d publishes=%d, want 1/2/0/5",
			met.SnapTxs, met.SnapReads, met.SnapPinned, met.SnapPublishes)
	}
}

// TestSessionTeardownReleasesSnapshotPins: a client that vanishes with a
// snapshot open must not pin the version store forever — the session
// teardown releases it.
func TestSessionTeardownReleasesSnapshotPins(t *testing.T) {
	mgr := nestedtx.NewManager()
	mgr.MustRegister("x", nestedtx.Counter{})
	_, addr := start(t, mgr, server.Config{})
	c := dial(t, addr)
	if _, err := c.BeginReadOnly(); err != nil {
		t.Fatalf("BeginReadOnly: %v", err)
	}
	if got := mgr.Metrics().Snapshot().SnapPinned; got != 1 {
		t.Fatalf("live pins = %d, want 1", got)
	}
	c.Close()
	deadline := func() bool { return mgr.Metrics().Snapshot().SnapPinned == 0 }
	waitUntil(t, "snapshot pin released by session teardown", deadline)
}

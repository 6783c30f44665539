package server_test

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"nestedtx"
	"nestedtx/internal/repl"
	"nestedtx/internal/server"
	"nestedtx/internal/wal"
)

// TestFollowerCheckpointBoundsRedo: a leader and its follower each
// checkpoint by themselves, with the same log code, once the segments
// sealed since their last checkpoint exceed max(4 × SegmentBytes, the
// last checkpoint's size). After ten times that volume of commits, each
// node's restart redoes at most the policy's volume plus the two
// segments a checkpoint leaves in place (the one holding its LSN and the
// active one), and each recovered history certifies.
func TestFollowerCheckpointBoundsRedo(t *testing.T) {
	const seg, objects = 4 << 10, 64
	fs := wal.NewMemFS()
	opts := nestedtx.DurableOptions{FS: fs, SegmentBytes: seg}
	mgr, _, err := nestedtx.OpenDurable("leader", opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(mgr, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()
	f, err := repl.OpenFollower("follower", opts)
	if err != nil {
		t.Fatal(err)
	}
	go f.Run(addr)
	for i := 0; i < objects; i++ {
		mgr.MustRegister(fmt.Sprintf("c%02d", i), nestedtx.Counter{})
	}
	// Ten times the policy's volume, 4 × seg: commit records here are
	// about 150 bytes.
	const commits = 10 * 4 * seg / 100
	for i := 0; i < commits; i++ {
		if err := mgr.Run(func(tx *nestedtx.Tx) error {
			_, err := tx.Do(fmt.Sprintf("c%02d", i%objects), nestedtx.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the follower to catch up", func() bool { return caughtUp(f, mgr) })
	leaderStats, _ := mgr.WalStats()
	if leaderStats.CheckpointLSN == 0 || f.Status().CheckpointLSN == 0 {
		t.Fatalf("checkpoint LSNs: leader %d, follower %d; want both to have checkpointed",
			leaderStats.CheckpointLSN, f.Status().CheckpointLSN)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil { // closes the leader's log
		t.Fatal(err)
	}

	for _, dir := range []string{"leader", "follower"} {
		rec, err := wal.Inspect(dir, fs)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if err := (&nestedtx.Recovery{Recovery: rec}).Verify(); err != nil {
			t.Fatalf("%s: recovered history rejected: %v", dir, err)
		}
		ckpt, err := fs.Size(filepath.Join(dir, fmt.Sprintf("ckpt-%016d.ckpt", rec.CheckpointLSN)))
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		var redo int64
		for _, s := range rec.Segments() {
			redo += s.Size
		}
		bound := max(4*seg, ckpt) + 2*seg
		t.Logf("%s: checkpoint at %d of %d B, %d records and %d B to redo, bound %d B",
			dir, rec.CheckpointLSN, ckpt, len(rec.Records), redo, bound)
		if redo > bound {
			t.Errorf("%s: restart redoes %d B of log, bound %d B", dir, redo, bound)
		}
	}
}

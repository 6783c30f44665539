package main

import (
	"bytes"
	"context"
	"log"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"nestedtx"
	"nestedtx/internal/repl"
	"nestedtx/internal/server"
	"nestedtx/internal/wal"
)

// TestDrainVerifiesPromotedReplica: a replica promoted under -record
// opens its manager WithRecording (via PromoteOptions), so the drain must
// machine-check that manager's schedule exactly as it does a leader's.
// The separate follower drain path used to skip Verify altogether.
func TestDrainVerifiesPromotedReplica(t *testing.T) {
	fs := wal.NewMemFS()
	leader, _, err := nestedtx.OpenDurable("leader", nestedtx.DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	leader.MustRegister("ctr", nestedtx.Counter{})
	add := func(tx *nestedtx.Tx) error {
		_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
		return err
	}
	lsrv := server.New(leader, server.Config{})
	lln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go lsrv.Serve(lln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lsrv.Shutdown(ctx)
		leader.CloseWAL()
	}()

	f, err := repl.OpenFollower("replica", wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(nil, server.Config{
		Follower:       f,
		PromoteOptions: []nestedtx.Option{nestedtx.WithRecording()}, // what -record passes
	})
	go f.Run(lln.Addr().String())

	for i := 0; i < 5; i++ {
		if err := leader.Run(add); err != nil {
			t.Fatal(err)
		}
	}
	ws, _ := leader.WalStats()
	for deadline := time.Now().Add(15 * time.Second); f.Status().NextLSN != ws.DurableLSN; {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at lsn %d, leader durable %d", f.Status().NextLSN, ws.DurableLSN)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := srv.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := srv.Manager().Run(add); err != nil {
		t.Fatalf("commit on promoted replica: %v", err)
	}

	var out bytes.Buffer
	log.SetOutput(&out)
	defer log.SetOutput(os.Stderr)
	if err := drain(srv); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !strings.Contains(out.String(), "schedule verified") {
		t.Fatalf("drain of a recording promoted replica did not verify its schedule:\n%s", out.String())
	}
	if err := srv.Manager().Run(add); err == nil {
		t.Fatal("commit succeeded after drain: the promoted manager's WAL was not closed")
	}
}

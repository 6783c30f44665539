package server_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/server"
	"nestedtx/internal/wal"
	"nestedtx/internal/wire"
)

// bigTable builds a Table whose adt encoding is at least min bytes.
func bigTable(min int) nestedtx.Table {
	val := strings.Repeat("x", 1024)
	m := make(map[string]nestedtx.Value)
	for i := 0; i*1100 < min; i++ {
		m[fmt.Sprintf("k%06d", i)] = val
	}
	return nestedtx.NewTable(m)
}

// TestLargeStateRoundTrip regresses the MaxFrameSize audit: a STATE
// snapshot bigger than the 1 MiB request limit (but under the response
// limit) must round-trip to the client intact instead of killing the
// session.
func TestLargeStateRoundTrip(t *testing.T) {
	mgr := nestedtx.NewManager()
	tbl := bigTable(2 << 20)
	mgr.MustRegister("big", tbl)
	_, addr := start(t, mgr, server.Config{})
	c := dial(t, addr)

	st, err := c.State("big")
	if err != nil {
		t.Fatalf("State(big): %v", err)
	}
	got, ok := st.(nestedtx.Table)
	if !ok {
		t.Fatalf("state type %T, want Table", st)
	}
	if _, v := (nestedtx.TblGet{K: "k000000"}).Apply(got); v != strings.Repeat("x", 1024) {
		t.Fatalf("round-tripped table lost its values")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after large state: %v", err)
	}
}

// TestOversizeStateExplicitError: a snapshot over even the response limit
// comes back as a CodeTooLarge error — and the session survives it.
func TestOversizeStateExplicitError(t *testing.T) {
	mgr := nestedtx.NewManager()
	mgr.MustRegister("huge", bigTable(wire.MaxResponseSize+1<<20))
	mgr.MustRegister("ctr", nestedtx.Counter{})
	_, addr := start(t, mgr, server.Config{})
	c := dial(t, addr)

	_, err := c.State("huge")
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != wire.CodeTooLarge {
		t.Fatalf("State(huge) = %v, want code %q", err, wire.CodeTooLarge)
	}
	// The error was a reply, not a connection teardown.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after too-large state: %v", err)
	}
	if _, err := c.State("ctr"); err != nil {
		t.Fatalf("small state after too-large state: %v", err)
	}
}

// TestDrainDurability drains a durable server under write load and
// checks the contract of Server.Shutdown on a durable manager: every
// commit a client saw acknowledged is present after recovery, and the
// recovered history passes the Theorem-34 checker.
func TestDrainDurability(t *testing.T) {
	mem := wal.NewMemFS()
	mgr, _, err := nestedtx.OpenDurable("d", nestedtx.DurableOptions{FS: mem})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if err := mgr.Register("ctr", nestedtx.Counter{}); err != nil {
		t.Fatalf("register: %v", err)
	}
	srv, addr := start(t, mgr, server.Config{})

	var acked atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithTimeout(10*time.Second))
			if err != nil {
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := c.RunRetry(4, func(tx *client.Tx) error {
					_, err := tx.Write("ctr", nestedtx.CtrAdd{Delta: 1})
					return err
				})
				if err == nil {
					acked.Add(1)
				} else if c.Lost() {
					return
				}
			}
		}()
	}

	// Let load build, then drain mid-flight.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := mgr.CloseWAL(); err != nil {
		t.Fatalf("close wal: %v", err)
	}

	m2, rec, err := nestedtx.OpenDurable("d", nestedtx.DurableOptions{FS: mem})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer m2.CloseWAL()
	if err := rec.Verify(); err != nil {
		t.Fatalf("recovered schedule rejected: %v", err)
	}
	st, err := m2.State("ctr")
	if err != nil {
		t.Fatalf("recovered ctr: %v", err)
	}
	n := st.(nestedtx.Counter).N
	if want := acked.Load(); n < want {
		t.Fatalf("recovered %d commits, but clients saw %d acknowledged", n, want)
	}
	if acked.Load() == 0 {
		t.Fatalf("no commits acknowledged before the drain; test proved nothing")
	}
	// A clean drain loses nothing at all — not even unacknowledged
	// stragglers: the cold reopen serves exactly what the live manager
	// held, and the recovered manager can checkpoint for the next boot.
	live, err := mgr.State("ctr")
	if err != nil {
		t.Fatalf("live ctr: %v", err)
	}
	if live != st {
		t.Fatalf("recovered ctr = %v, live manager had %v", st, live)
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
}

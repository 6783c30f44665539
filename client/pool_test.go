package client

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedtx/internal/clock"
	"nestedtx/internal/wire"
)

// okServer accepts any number of connections and answers every request
// OK with the echoed seq, sleeping respDelay (read per request) before
// each answer. Handler goroutines exit when their connection closes.
func okServer(t *testing.T, respDelay *atomic.Int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				for {
					req, err := wire.ReadRequest(br)
					if err != nil {
						return
					}
					if d := time.Duration(respDelay.Load()); d > 0 {
						time.Sleep(d)
					}
					if wire.WriteFrame(bw, &wire.Response{Seq: req.Seq, OK: true}) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestPoolGetAfterCloseFailsClosed pins the Close/Get race on the
// redial path: a Get that is mid-dial (health-check ping in flight)
// when Close completes must fail with ErrPoolClosed and close the fresh
// connection — not hand out a live connection the closed pool will
// never tear down. Before the closed-flag re-check under the pool lock,
// the dial-success path returned the connection unconditionally.
func TestPoolGetAfterCloseFailsClosed(t *testing.T) {
	var delay atomic.Int64
	addr := okServer(t, &delay)
	p, err := NewPool(addr, 1, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// Poison the idle connection so the next Get must redial.
	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	p.Put(c)

	delay.Store(int64(300 * time.Millisecond)) // stall the redial's health check
	var closed atomic.Bool
	res := make(chan error, 1)
	go func() {
		c, err := p.Get()
		if err == nil {
			defer p.Put(c)
			if closed.Load() {
				res <- errors.New("Get returned a live connection after Close returned")
				return
			}
			res <- nil
			return
		}
		if closed.Load() && !errors.Is(err, ErrPoolClosed) {
			res <- err
			return
		}
		res <- nil
	}()

	time.Sleep(100 * time.Millisecond) // let Get reach the stalled ping
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Get on closed pool = %v, want ErrPoolClosed", err)
	}
}

// TestPoolCloseGetHammer races Close against concurrent Get/Put traffic
// (including forced poisonings, so the redial path stays hot) and then
// checks nothing leaked: every post-Close Get fails with ErrPoolClosed
// and all server-side session goroutines drain — a connection handed
// out after Close would pin its handler goroutine forever.
func TestPoolCloseGetHammer(t *testing.T) {
	var delay atomic.Int64
	addr := okServer(t, &delay)
	base := runtime.NumGoroutine()

	for round := 0; round < 10; round++ {
		p, err := NewPool(addr, 4, WithTimeout(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					c, err := p.Get()
					if err != nil {
						if !errors.Is(err, ErrPoolClosed) {
							t.Errorf("worker %d: Get: %v", w, err)
						}
						return
					}
					c.Ping()
					if (i+w)%3 == 0 {
						c.Close() // poison: force the next Get to redial
					}
					p.Put(c)
				}
			}(w)
		}
		time.Sleep(5 * time.Millisecond)
		p.Close()
		wg.Wait()
		if _, err := p.Get(); !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("round %d: Get after Close = %v, want ErrPoolClosed", round, err)
		}
	}

	// All connections closed => all server handler goroutines exit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, want <= %d (a live connection escaped Close)",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBackoffDelayBounds pins the waits Client.RunRetry and Pool.RunRetry
// take between attempts: clock.Backoff at retryBase is positive, jittered
// below the per-attempt ceiling and saturating at 64*retryBase.
func TestBackoffDelayBounds(t *testing.T) {
	cases := []struct {
		attempt int
		ceil    time.Duration
	}{
		{-1, retryBase}, {0, retryBase}, {3, 8 * retryBase}, {6, 64 * retryBase},
		{7, 64 * retryBase}, {32, 64 * retryBase}, {63, 64 * retryBase}, {64, 64 * retryBase},
	}
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			if d := clock.Backoff(c.attempt, retryBase); d <= 0 || d > c.ceil {
				t.Fatalf("clock.Backoff(%d, retryBase) = %v, want in (0, %v]", c.attempt, d, c.ceil)
			}
		}
	}
}

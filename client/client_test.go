package client

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"nestedtx"
	"nestedtx/internal/wire"
)

// scriptedServer accepts one connection and answers each incoming frame
// with the next scripted raw byte string (written verbatim — so scripts
// can desynchronise seqs, truncate payloads or garble headers at will).
// A script entry of "" closes the connection instead of answering.
// Extra requests beyond the script also close the connection.
func scriptedServer(t *testing.T, script []string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for _, raw := range script {
			if _, err := wire.ReadRequest(br); err != nil {
				return
			}
			if raw == "" {
				return
			}
			if _, err := io.WriteString(conn, raw); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// frame builds a well-formed wire frame around payload.
func frame(payload string) string {
	var sb strings.Builder
	sb.WriteString(itoa(len(payload)))
	sb.WriteByte('\n')
	sb.WriteString(payload)
	sb.WriteByte('\n')
	return sb.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestCallFaultsPoisonConnection is the table-driven tour of the
// transport/protocol failure paths in Client.call: each scripted server
// response must (a) fail the in-flight call with an ErrConnLost-wrapped
// error and (b) poison the client, so the *next* call fails fast with
// ErrConnLost without touching the wire.
func TestCallFaultsPoisonConnection(t *testing.T) {
	cases := []struct {
		name    string
		raw     string // scripted response to the first request (a PING with seq 1)
		errFrag string // substring expected in the first call's error
	}{
		{"stale seq replay", frame(`{"seq":0,"ok":true}`), "seq 0 for request 1"},
		{"future seq", frame(`{"seq":9,"ok":true}`), "seq 9 for request 1"},
		{"garbage header", "not-a-length\n", "bad frame length"},
		{"truncated payload", "50\n{\"seq\":1,\"ok\":true}", "receive"},
		{"missing trailing newline", "19\n{\"seq\":1,\"ok\":true}X", "newline"},
		{"connection closed", "", "receive"},
		{"oversize frame", "99999999\n", "limit"},
		{"unparsable json", frame(`{"seq":`), "receive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedServer(t, []string{tc.raw})
			c, err := Dial(addr, WithTimeout(2*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Ping()
			if err == nil {
				t.Fatal("faulted call succeeded")
			}
			if !errors.Is(err, ErrConnLost) {
				t.Fatalf("first call error not ErrConnLost: %v", err)
			}
			if !strings.Contains(err.Error(), tc.errFrag) {
				t.Fatalf("error %q does not mention %q", err, tc.errFrag)
			}
			if !c.Lost() {
				t.Fatal("client not poisoned after transport fault")
			}
			// Poisoned: every later call fails fast with ErrConnLost and
			// never reads whatever stale bytes may sit on the wire.
			for i := 0; i < 3; i++ {
				if err := c.Ping(); !errors.Is(err, ErrConnLost) {
					t.Fatalf("post-fault call %d: got %v, want ErrConnLost", i, err)
				}
			}
			if _, err := c.Metrics(false); !errors.Is(err, ErrConnLost) {
				t.Fatalf("post-fault Metrics: got %v, want ErrConnLost", err)
			}
		})
	}
}

// TestClientDeadlinePoisons covers the client-side timeout: a server
// that answers too late must not leave the client reading the stale
// response as the answer to its next request (the pre-fix bug reported
// a bogus seq mismatch); the deadline poisons the connection instead.
func TestClientDeadlinePoisons(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	responded := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := wire.ReadRequest(br); err != nil {
			return
		}
		time.Sleep(300 * time.Millisecond) // well past the client deadline
		io.WriteString(conn, frame(`{"seq":1,"ok":true}`))
		close(responded)
	}()
	c, err := Dial(ln.Addr().String(), WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); !errors.Is(err, ErrConnLost) {
		t.Fatalf("timed-out call: got %v, want ErrConnLost", err)
	}
	<-responded // the stale frame is now (or soon) on the dead socket
	if err := c.Ping(); !errors.Is(err, ErrConnLost) {
		t.Fatalf("call after timeout: got %v, want fast ErrConnLost (no stale-frame read)", err)
	}
}

// TestMetricsNilPayload: an OK METRICS response with no metrics payload
// must return a typed error, not panic on a nil dereference.
func TestMetricsNilPayload(t *testing.T) {
	addr := scriptedServer(t, []string{frame(`{"seq":1,"ok":true}`)})
	c, err := Dial(addr, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Metrics(false)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("Metrics without payload: got %v, want ErrMalformed", err)
	}
}

// TestRunRetryClampsAttempts mirrors the local-runtime clamp fix: a
// non-positive attempts count still runs fn exactly once.
func TestRunRetryClampsAttempts(t *testing.T) {
	for _, attempts := range []int{0, -3} {
		// BEGIN succeeds, the body errors, ABORT succeeds: fn observably
		// ran exactly once (a fresh one-connection script per case).
		addr := scriptedServer(t, []string{
			frame(`{"seq":1,"ok":true,"tx":1,"txid":"T0.1"}`), // BEGIN
			frame(`{"seq":2,"ok":true}`),                      // ABORT
		})
		c, err := Dial(addr, WithTimeout(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		ran := 0
		bodyErr := errors.New("body ran")
		err = c.RunRetry(attempts, func(tx *Tx) error {
			ran++
			return bodyErr
		})
		c.Close()
		if ran != 1 {
			t.Fatalf("RunRetry(%d) ran fn %d times, want 1", attempts, ran)
		}
		if !errors.Is(err, bodyErr) {
			t.Fatalf("RunRetry(%d) = %v, want the body's error", attempts, err)
		}
	}
}

// TestPoolRunRetryClampsAttempts: the pool mirror of the clamp.
func TestPoolRunRetryClampsAttempts(t *testing.T) {
	// PING (health check) then BEGIN/ABORT.
	addr := scriptedServer(t, []string{
		frame(`{"seq":1,"ok":true}`),                      // Ping health check
		frame(`{"seq":2,"ok":true,"tx":1,"txid":"T0.1"}`), // BEGIN
		frame(`{"seq":3,"ok":true}`),                      // ABORT
	})
	p, err := NewPool(addr, 1, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ran := false
	bodyErr := errors.New("pool body ran")
	if err := p.RunRetry(0, func(tx *Tx) error { ran = true; return bodyErr }); !errors.Is(err, bodyErr) || !ran {
		t.Fatalf("Pool.RunRetry(0): ran=%v err=%v", ran, err)
	}
}

// TestBusyFrameDoesNotPoison: a busy refusal is an orderly protocol
// answer (it precedes any session), not a transport fault.
func TestBusyFrameDoesNotPoison(t *testing.T) {
	addr := scriptedServer(t, []string{frame(`{"seq":0,"ok":false,"code":"busy","err":"full"}`)})
	c, err := Dial(addr, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); !errors.Is(err, ErrBusy) {
		t.Fatalf("got %v, want ErrBusy", err)
	}
	if c.Lost() {
		t.Fatal("busy frame poisoned the client")
	}
}

// TestClosePoisons: an explicitly closed client fails fast too.
func TestClosePoisons(t *testing.T) {
	addr := scriptedServer(t, []string{frame(`{"seq":1,"ok":true}`)})
	c, err := Dial(addr, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Ping(); !errors.Is(err, ErrConnLost) {
		t.Fatalf("ping after Close: got %v, want ErrConnLost", err)
	}
}

// TestRunSkipsAbortOnLostConn: when the body fails because the
// connection died, Run must not try to deliver ABORT on the dead
// connection — the server aborts the open tree on teardown.
func TestRunSkipsAbortOnLostConn(t *testing.T) {
	addr := scriptedServer(t, []string{
		frame(`{"seq":1,"ok":true,"tx":1,"txid":"T0.1"}`), // BEGIN
		"", // WRITE: close the connection instead of answering
	})
	c, err := Dial(addr, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(tx *Tx) error {
		_, err := tx.Write("x", nestedtx.CtrAdd{Delta: 1})
		return err
	})
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("Run over cut connection: got %v, want ErrConnLost", err)
	}
	if !errors.Is(err, ErrConnLost) || strings.Contains(err.Error(), "abort") {
		t.Fatalf("Run attempted an abort on a lost connection: %v", err)
	}
}

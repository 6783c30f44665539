package faultnet

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// echoServer accepts connections and echoes lines back, newline for
// newline — enough structure for the proxy's frame counting (two lines
// per frame, like the wire protocol).
func echoServer(t *testing.T) string {
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
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if _, err := io.WriteString(conn, line); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", p.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// sendFrame writes one two-line "frame" and reads the echo of both
// lines back.
func sendFrame(conn net.Conn, i int) error {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	msg := fmt.Sprintf("hdr%d\npayload%d\n", i, i)
	if _, err := io.WriteString(conn, msg); err != nil {
		return err
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		return err
	}
	if string(buf) != msg {
		return fmt.Errorf("echo mismatch: sent %q got %q", msg, buf)
	}
	return nil
}

func TestTransparentForwarding(t *testing.T) {
	addr := echoServer(t)
	p, err := New(addr, Faults{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn := dialProxy(t, p)
	for i := 0; i < 10; i++ {
		if err := sendFrame(conn, i); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if acc, cut := p.Stats(); acc != 1 || cut != 0 {
		t.Fatalf("stats accepted=%d cut=%d, want 1/0", acc, cut)
	}
}

func TestLatencyAndChunking(t *testing.T) {
	addr := echoServer(t)
	// 5ms per chunk, 4-byte chunks: a ~14-byte frame takes >= 4 chunks
	// each way, so a round trip costs well over 20ms.
	p, err := New(addr, Faults{Latency: 5 * time.Millisecond, Jitter: time.Millisecond, ByteChunk: 4}, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn := dialProxy(t, p)
	start := time.Now()
	if err := sendFrame(conn, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("round trip took %v; chunked latency not applied", elapsed)
	}
}

func TestCutAfterFrames(t *testing.T) {
	addr := echoServer(t)
	p, err := New(addr, Faults{CutAfterFrames: 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn := dialProxy(t, p)
	// First three frames pass (the cut fires after the 3rd is forwarded;
	// its echo may or may not make it back, so stop asserting at 2).
	for i := 0; i < 2; i++ {
		if err := sendFrame(conn, i); err != nil {
			t.Fatalf("frame %d before cut: %v", i, err)
		}
	}
	// Keep sending: the connection must die quickly.
	var failed error
	for i := 2; i < 50 && failed == nil; i++ {
		failed = sendFrame(conn, i)
	}
	if failed == nil {
		t.Fatal("connection survived past CutAfterFrames")
	}
	if _, cut := p.Stats(); cut == 0 {
		t.Fatal("proxy did not count the cut")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	addr := echoServer(t)
	p, err := New(addr, Faults{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn := dialProxy(t, p)
	if err := sendFrame(conn, 0); err != nil {
		t.Fatal(err)
	}

	p.Partition()
	// The live connection is severed...
	if err := sendFrame(conn, 1); err == nil {
		// The first write after a cut can be buffered; retry once.
		if err := sendFrame(conn, 2); err == nil {
			t.Fatal("live connection survived the partition")
		}
	}
	// ...and a new one is refused: accepted then reset, so reads fail —
	// or the reset lands before connect returns and the dial itself fails.
	if c2, err := net.DialTimeout("tcp", p.Addr(), 5*time.Second); err == nil {
		defer c2.Close()
		if err := sendFrame(c2, 0); err == nil {
			t.Fatal("new connection crossed the partition")
		}
	}

	p.Heal()
	c3 := dialProxy(t, p)
	if err := sendFrame(c3, 0); err != nil {
		t.Fatalf("connection after heal: %v", err)
	}
	if p.Conns() == 0 {
		t.Fatal("healed connection not tracked")
	}
}

func TestStallAfterFrames(t *testing.T) {
	addr := echoServer(t)
	p, err := New(addr, Faults{StallAfterFrames: 1, StallFor: 60 * time.Millisecond}, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn := dialProxy(t, p)
	if err := sendFrame(conn, 0); err != nil {
		t.Fatal(err)
	}
	// The client→server direction has now forwarded 1 frame: the next
	// frame is delayed by the stall (the stall happens after forwarding
	// frame 1, before frame 2's bytes move).
	start := time.Now()
	if err := sendFrame(conn, 1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("second frame took only %v; stall not applied", elapsed)
	}
}

func TestCloseSeversEverything(t *testing.T) {
	addr := echoServer(t)
	p, err := New(addr, Faults{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	conn := dialProxy(t, p)
	if err := sendFrame(conn, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := sendFrame(conn, 1); err == nil {
		if err := sendFrame(conn, 2); err == nil {
			t.Fatal("connection survived proxy Close")
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close not idempotent: %v", err)
	}
	if !strings.Contains(p.Addr(), "127.0.0.1") {
		t.Fatalf("unexpected addr %q", p.Addr())
	}
}

// Package faultnet is an in-process TCP fault-injection proxy for
// testing the network transaction stack under connection failures.
//
// A [Proxy] listens on a loopback address and forwards every accepted
// connection to a target address, applying a scripted [Faults] schedule
// to the forwarded byte stream: added per-frame latency with seeded
// jitter, byte-level chunking (so a frame arrives in dribbles), stalls
// after N frames, hard connection cuts (RST) after N client→server
// frames, and whole-proxy partitions that sever every live connection
// and refuse new ones until healed.
//
// The paper's model has no crashes ("our model does not yet include
// crashes", §1), but its Theorem 34 is proved for every non-orphan
// transaction — an abandoned network client is exactly the orphan
// scenario, so the server must reclaim a cut connection's locks and the
// surviving schedule must still verify. faultnet exists to drive that
// property under deterministic, reproducible failure schedules: all
// randomness (jitter) flows from the seed given to [New], and frame
// counting is derived from the wire framing itself (every frame is a
// header line plus a payload line, so two newlines delimit one frame).
//
// faultnet is test infrastructure: it lives under internal/ and is used
// by the server's fault-injection suite, the network soak test and the
// deterministic simulator (internal/dst). Nothing the runtime or
// cmd/txserver links may import it.
package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"nestedtx/internal/clock"
)

// Faults scripts the failure behaviour applied to each proxied
// connection. The zero value forwards faithfully (a transparent proxy).
type Faults struct {
	// Latency is added before each forwarded write, in both directions.
	Latency time.Duration
	// Jitter adds a seeded-random extra delay in [0, Jitter) on top of
	// Latency, so concurrent connections desynchronise reproducibly.
	Jitter time.Duration
	// ByteChunk > 0 forwards at most ByteChunk bytes per write, applying
	// Latency+Jitter per chunk — a byte-level stall that makes frames
	// arrive in dribbles and exercises partial-read handling.
	ByteChunk int
	// StallAfterFrames > 0 pauses a direction for StallFor once it has
	// forwarded that many frames, then resumes.
	StallAfterFrames int
	StallFor         time.Duration
	// CutAfterFrames > 0 hard-closes (RST where the platform allows) the
	// connection once the client→server direction has forwarded that
	// many frames — the mid-transaction "connection died" scenario.
	CutAfterFrames int
}

// Proxy is one listening fault-injection proxy. Create with [New].
type Proxy struct {
	target string
	faults Faults
	clk    clock.Clock
	ln     net.Listener
	done   chan struct{} // closed by Close; interrupts sleeps

	mu          sync.Mutex
	rng         *rand.Rand // seeded; guarded by mu
	conns       map[*proxyConn]struct{}
	partitioned bool
	closed      bool

	accepted uint64 // total connections accepted
	cut      uint64 // connections reset by fault script, CutAll or Partition
	wg       sync.WaitGroup
}

// New starts a proxy on a loopback address forwarding to target. All
// jitter randomness is derived from seed, so a failure schedule replays
// identically across runs.
func New(target string, faults Faults, seed int64) (*Proxy, error) {
	return NewWithClock(target, faults, seed, nil)
}

// NewWithClock is New with an injected time source for the proxy's fault
// delays (latency, jitter, stalls). nil means the wall clock; the
// deterministic simulator passes its virtual clock so injected latency
// is event-queue time.
func NewWithClock(target string, faults Faults, seed int64, clk clock.Clock) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen: %w", err)
	}
	p := &Proxy{
		target: target,
		faults: faults,
		clk:    clock.Or(clk),
		ln:     ln,
		done:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
		conns:  make(map[*proxyConn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's dial address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats reports how many connections the proxy accepted and how many it
// reset (by script, CutAll or Partition).
func (p *Proxy) Stats() (accepted, cut uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted, p.cut
}

// Conns returns the number of currently live proxied connections.
func (p *Proxy) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Close stops the proxy: the listener closes, every live connection is
// severed, and all forwarding goroutines are awaited.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	err := p.ln.Close()
	p.CutAll()
	p.wg.Wait()
	return err
}

// Partition severs every live connection and makes the proxy refuse new
// ones (accepted, then immediately reset) until [Proxy.Heal] — a full
// network partition between all clients and the server.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	p.mu.Unlock()
	p.CutAll()
}

// Heal ends a partition: new connections forward normally again.
// (Connections cut by the partition stay dead; clients must redial.)
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.mu.Unlock()
}

// CutAll resets every currently live proxied connection once — the
// "switch rebooted" event. New connections are unaffected.
func (p *Proxy) CutAll() {
	p.mu.Lock()
	live := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		live = append(live, c)
	}
	p.cut += uint64(len(live))
	p.mu.Unlock()
	for _, c := range live {
		c.reset()
	}
}

func (p *Proxy) isPartitioned() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.partitioned
}

// jitter draws a seeded random extra delay in [0, Jitter).
func (p *Proxy) jitter() time.Duration {
	if p.faults.Jitter <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(p.rng.Int63n(int64(p.faults.Jitter)))
}

// sleep waits for d on the proxy clock, cut short if the proxy closes.
func (p *Proxy) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := p.clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
	case <-p.done:
	}
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		p.accepted++
		refuse := p.partitioned || p.closed
		if refuse {
			p.cut++
		}
		p.mu.Unlock()
		if refuse {
			hardClose(conn)
			continue
		}
		p.wg.Add(1)
		go p.serve(conn)
	}
}

// proxyConn is one proxied client↔server connection pair.
type proxyConn struct {
	client net.Conn
	server net.Conn
	once   sync.Once
}

// reset severs both halves abruptly (RST towards the client where the
// platform supports SO_LINGER 0).
func (c *proxyConn) reset() {
	c.once.Do(func() {
		hardClose(c.client)
		hardClose(c.server)
	})
}

// hardClose closes conn, asking TCP to send RST rather than FIN so the
// peer sees a genuine connection failure, not a clean shutdown.
func hardClose(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	server, err := net.DialTimeout("tcp", p.target, 10*time.Second)
	if err != nil {
		hardClose(client)
		return
	}
	c := &proxyConn{client: client, server: server}
	p.mu.Lock()
	if p.closed || p.partitioned {
		p.mu.Unlock()
		c.reset()
		return
	}
	p.conns[c] = struct{}{}
	p.mu.Unlock()
	defer func() {
		c.reset()
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.pipe(c, c.server, c.client, false) // server → client
	}()
	p.pipe(c, c.client, c.server, true) // client → server (counts for cuts)
	c.reset()                           // one direction died: sever the pair
	wg.Wait()
}

// pipe forwards src → dst applying the fault script. clientToServer
// marks the direction whose frame count drives CutAfterFrames. A frame
// is two newline-terminated lines (length header + payload), so
// frames = newlines/2.
func (p *Proxy) pipe(c *proxyConn, src, dst net.Conn, clientToServer bool) {
	f := p.faults
	buf := make([]byte, 32<<10)
	newlines := 0
	stalled := false
	for {
		if p.isPartitioned() {
			p.countCut()
			c.reset()
			return
		}
		n, err := src.Read(buf)
		if n > 0 {
			data := buf[:n]
			for len(data) > 0 {
				chunk := data
				if f.ByteChunk > 0 && len(chunk) > f.ByteChunk {
					chunk = chunk[:f.ByteChunk]
				}
				p.sleep(f.Latency + p.jitter())
				if _, werr := dst.Write(chunk); werr != nil {
					return
				}
				for _, b := range chunk {
					if b == '\n' {
						newlines++
					}
				}
				frames := newlines / 2
				if clientToServer && f.CutAfterFrames > 0 && frames >= f.CutAfterFrames {
					p.countCut()
					c.reset()
					return
				}
				if f.StallAfterFrames > 0 && f.StallFor > 0 && !stalled && frames >= f.StallAfterFrames {
					stalled = true
					p.sleep(f.StallFor)
				}
				data = data[len(chunk):]
			}
		}
		if err != nil {
			return
		}
	}
}

func (p *Proxy) countCut() {
	p.mu.Lock()
	p.cut++
	p.mu.Unlock()
}

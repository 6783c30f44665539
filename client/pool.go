package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nestedtx/internal/clock"
	"nestedtx/internal/obs"
)

// ErrPoolClosed is returned by Pool operations after Close.
var ErrPoolClosed = errors.New("client: pool closed")

// Pool maintains up to size healthy connections to one server and hands
// them out as sessions. Poisoned connections (see [ErrConnLost]) are
// discarded on return and replaced on demand by redialling with
// jittered exponential backoff, so the pool rides out connection cuts,
// server restarts and transient partitions.
//
// [Pool.Run] borrows a connection for one transaction; [Pool.RunRetry]
// additionally retries deadlock victims *and* lost connections — the
// latter is safe because a lost connection's open transaction is
// aborted server-side (session teardown or the idle reaper), so its
// effects never commit and the body can run again.
type Pool struct {
	addr   string
	opts   []Option
	tokens chan struct{} // capacity tickets: one per potential connection
	stop   chan struct{}
	rtt    *obs.Histogram // round-trip latencies across every connection dialled

	mu     sync.Mutex
	idle   []*Client
	closed bool

	redials   uint64 // successful replacement dials after the initial fill
	discarded uint64 // poisoned connections dropped
}

// poolDialAttempts bounds one Get's redial loop; with jittered backoff
// doubling from ~5ms the worst case waits well under a second.
const poolDialAttempts = 6

// NewPool dials and health-checks size connections to addr (opts apply
// to every dial, now and on reconnect). Dial failures during the
// initial fill are not fatal as long as at least one connection comes
// up — the missing ones are redialled on demand — but a pool that
// cannot reach the server at all fails fast.
func NewPool(addr string, size int, opts ...Option) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	p := &Pool{
		addr:   addr,
		opts:   opts,
		tokens: make(chan struct{}, size),
		stop:   make(chan struct{}),
		rtt:    new(obs.Histogram),
	}
	for i := 0; i < size; i++ {
		p.tokens <- struct{}{}
	}
	ok := 0
	for i := 0; i < size; i++ {
		c, err := p.dialOne()
		if err != nil {
			continue
		}
		p.idle = append(p.idle, c)
		ok++
	}
	if ok == 0 {
		return nil, fmt.Errorf("client: pool: no connection to %s could be established", addr)
	}
	return p, nil
}

// dialOne dials and health-checks a single connection. Every connection
// shares the pool's RTT histogram.
func (p *Pool) dialOne() (*Client, error) {
	c, err := Dial(p.addr, append(append([]Option(nil), p.opts...), withRTT(p.rtt))...)
	if err != nil {
		return nil, err
	}
	if err := c.Ping(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Get borrows a healthy connection, blocking while all size connections
// are in use. If no idle connection is healthy it redials with jittered
// backoff; if the server stays unreachable for the whole backoff
// schedule, the error wraps [ErrConnLost] so retry loops treat "cannot
// connect" the same as "connection died".
//
// Get never returns a live connection after [Pool.Close] has returned:
// every hand-out path re-checks the closed flag under the pool lock —
// the same lock Close latches it under — so a Close racing a Get either
// beats the hand-out (Get fails with ErrPoolClosed and the connection
// is closed) or loses it (Put closes the connection on return).
func (p *Pool) Get() (*Client, error) {
	select {
	case <-p.stop:
		return nil, ErrPoolClosed
	case <-p.tokens:
	}
	// Prefer a recycled healthy connection.
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			p.putToken()
			return nil, ErrPoolClosed
		}
		var c *Client
		if n := len(p.idle); n > 0 {
			c = p.idle[n-1]
			p.idle = p.idle[:n-1]
		}
		p.mu.Unlock()
		if c == nil {
			break
		}
		if !c.Lost() {
			return c, nil
		}
		p.noteDiscard()
		c.Close()
	}
	// None idle (or all poisoned): replace with a fresh dial.
	var lastErr error
	for attempt := 0; attempt < poolDialAttempts; attempt++ {
		select {
		case <-p.stop:
			p.putToken()
			return nil, ErrPoolClosed
		default:
		}
		c, err := p.dialOne()
		if err == nil {
			p.mu.Lock()
			if p.closed {
				// Close won the race while we were dialling: a connection
				// handed out now would never be torn down by Close.
				p.mu.Unlock()
				c.Close()
				p.putToken()
				return nil, ErrPoolClosed
			}
			p.redials++
			p.mu.Unlock()
			return c, nil
		}
		lastErr = err
		p.backoff(attempt)
	}
	p.putToken()
	return nil, fmt.Errorf("%w: pool redial to %s failed: %v", ErrConnLost, p.addr, lastErr)
}

// Put returns a borrowed connection. Poisoned connections are closed
// and dropped — the next Get redials their replacement.
func (p *Pool) Put(c *Client) {
	if c != nil {
		if c.Lost() {
			p.noteDiscard()
			c.Close()
		} else {
			p.mu.Lock()
			closed := p.closed
			if !closed {
				p.idle = append(p.idle, c)
			}
			p.mu.Unlock()
			if closed {
				c.Close()
			}
		}
	}
	p.putToken()
}

func (p *Pool) putToken() {
	select {
	case p.tokens <- struct{}{}:
	default: // Close drained nothing; capacity invariant keeps this from firing
	}
}

func (p *Pool) noteDiscard() {
	p.mu.Lock()
	p.discarded++
	p.mu.Unlock()
}

// backoff sleeps a jittered, exponentially growing interval after the
// attempt'th failed redial, interruptible by Close: 5ms doubling to a
// 320ms cap.
func (p *Pool) backoff(attempt int) {
	t := time.NewTimer(clock.Backoff(attempt, 5*time.Millisecond))
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.stop:
	}
}

// Close tears the pool down: idle connections close now, borrowed ones
// close when returned, and pending/future Gets fail with ErrPoolClosed.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	close(p.stop)
	for _, c := range idle {
		c.Close()
	}
	return nil
}

// PoolStats is a snapshot of a pool's reconnection activity and
// round-trip latency distribution (aggregated across every connection
// the pool ever dialled; quantiles are conservative log-bucket upper
// bounds, clamped to the observed max).
type PoolStats struct {
	Idle      int    // healthy connections waiting in the pool
	Redials   uint64 // replacement dials that succeeded (beyond the initial fill)
	Discarded uint64 // poisoned connections dropped

	Calls              uint64 // completed request round-trips
	P50, P90, P99, Max time.Duration
}

// Stats reports the pool's reconnection counters and RTT quantiles.
func (p *Pool) Stats() PoolStats {
	s := p.rtt.Snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Idle: len(p.idle), Redials: p.redials, Discarded: p.discarded,
		Calls: s.Count, P50: s.Quantile(50), P90: s.Quantile(90),
		P99: s.Quantile(99), Max: s.Max,
	}
}

// Run borrows a connection and executes fn as one top-level transaction
// on it (see [Client.Run]), returning the connection afterwards.
func (p *Pool) Run(fn func(*Tx) error) error {
	c, err := p.Get()
	if err != nil {
		return err
	}
	defer p.Put(c)
	return c.Run(fn)
}

// RunRetry is Run, retrying up to attempts times with jittered backoff
// while the failure is retryable: a deadlock victimhood
// (nestedtx.ErrDeadlock) or a lost connection ([ErrConnLost] — including
// "could not redial"). Both leave the server without the transaction's
// effects, so re-running fn is safe. attempts values below 1 are
// clamped to 1.
func (p *Pool) RunRetry(attempts int, fn func(*Tx) error) error {
	return retry(attempts, func(err error) bool { return isDeadlock(err) || errors.Is(err, ErrConnLost) },
		func() error { return p.Run(fn) })
}

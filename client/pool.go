package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nestedtx"
	"nestedtx/internal/clock"
	"nestedtx/internal/obs"
)

// ErrPoolClosed is returned by Pool operations after Close.
var ErrPoolClosed = errors.New("client: pool closed")

// Pool maintains up to size healthy connections to the leader of a
// deployment and hands them out as sessions. It knows the deployment's
// endpoints, the leader first ([NewReplicaPool]); [NewPool] is the
// one-endpoint case.
//
//   - Poisoned connections (see [ErrConnLost]) are discarded on return
//     and replaced on demand by redialling the leader with jittered
//     exponential backoff, so the pool rides out connection cuts, server
//     restarts and transient partitions.
//   - [Pool.Failover] asks every endpoint for its role and repoints the
//     pool at whichever one leads now (e.g. a follower an operator
//     promoted after the leader crashed): idle connections to the old
//     leader close at once, borrowed ones when they are returned, and the
//     next redial reaches the new leader. Capacity, counters and the RTT
//     histogram stay with the pool.
//   - [Pool.State] prefers the other endpoints, round-robin, so read load
//     leaves the leader's sessions free for transactions, and falls back
//     to the leader. A replica answers with replicated committed-to-root
//     state, which may trail the leader by the replication lag.
//
// [Pool.Run], [Pool.RunReadOnly] and [Pool.RunRetry] are the [Client]'s
// runners on a borrowed connection. RunRetry re-runs deadlock victims,
// transactions whose connection was lost (including "could not redial")
// and, when the pool knows a second endpoint, read_only refusals; after
// the last two it probes for the leader before the next attempt. Each is
// safe to re-run: a transaction whose session was lost is aborted
// server-side (session teardown or the idle deadline), and one a replica
// refused never began, so its effects never commit.
//
// A Pool is safe for concurrent use.
type Pool struct {
	addrs  []string // every known endpoint, the initial leader first
	opts   []Option
	tokens chan struct{} // capacity tickets: one per potential connection
	stop   chan struct{}
	rtt    *obs.Histogram // round-trip latencies across every leader connection dialled

	// probeMu serialises Failover's probing, so mu is only ever held for
	// field access, never across I/O. Lock order: probeMu before mu.
	probeMu sync.Mutex

	mu       sync.Mutex
	leader   string
	idle     []*Client          // connections to leader only
	replicas map[string]*Client // one connection per endpoint State has read from
	next     int                // round-robin cursor over the non-leader endpoints
	closed   bool

	redials   uint64 // successful replacement dials after the initial fill
	discarded uint64 // poisoned connections dropped
	failovers uint64 // leader changes
	probes    uint64 // completed Failover probe rounds, for coalescing
	lastProbe error  // outcome of the last round (nil = leader reachable)
}

// poolDialAttempts bounds one Get's redials; the jittered waits between
// them (5ms doubling) add up to at most 155ms.
const poolDialAttempts = 6

// NewPool is [NewReplicaPool] for a deployment of one server, addr.
func NewPool(addr string, size int, opts ...Option) (*Pool, error) {
	return NewReplicaPool(addr, nil, size, opts...)
}

// NewReplicaPool dials and health-checks size connections to leader and
// remembers replicas for State reads and failover probing (replica
// connections are dialled lazily). opts apply to every dial, now and on
// reconnect. Dial failures during the initial fill are not fatal as long
// as at least one connection comes up — the missing ones are redialled
// on demand — but a pool that cannot reach the leader at all fails fast.
func NewReplicaPool(leader string, replicas []string, size int, opts ...Option) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	p := &Pool{
		addrs:    append([]string{leader}, replicas...),
		opts:     opts,
		tokens:   make(chan struct{}, size),
		stop:     make(chan struct{}),
		rtt:      new(obs.Histogram),
		leader:   leader,
		replicas: make(map[string]*Client),
	}
	for i := 0; i < size; i++ {
		p.tokens <- struct{}{}
	}
	for i := 0; i < size; i++ {
		if c, err := p.dialLeader(); err == nil {
			p.idle = append(p.idle, c)
		}
	}
	if len(p.idle) == 0 {
		return nil, fmt.Errorf("client: pool: no connection to %s could be established", leader)
	}
	return p, nil
}

// Leader returns the address transactions currently go to.
func (p *Pool) Leader() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leader
}

// dialLeader dials and health-checks a connection to the current leader.
// Leader connections share the pool's RTT histogram; replica
// connections record none.
func (p *Pool) dialLeader() (*Client, error) {
	c, err := Dial(p.Leader(), append(p.opts[:len(p.opts):len(p.opts)], withRTT(p.rtt))...)
	if err != nil {
		return nil, err
	}
	if err := c.Ping(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Get borrows a healthy connection to the leader, blocking while all
// size connections are in use. If no idle connection is healthy it
// redials with jittered backoff; if the leader stays unreachable for the
// whole backoff schedule, the error wraps [ErrConnLost] so retry loops
// treat "cannot connect" the same as "connection died".
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
	var c *Client
	err := clock.Retry(clock.Real{}, poolDialAttempts, 5*time.Millisecond, p.stop,
		func(error) bool { return true },
		func() (err error) { c, err = p.dialLeader(); return err })
	if err != nil {
		p.putToken()
		select {
		case <-p.stop:
			return nil, ErrPoolClosed
		default:
		}
		return nil, fmt.Errorf("%w: pool redial to %s failed: %v", ErrConnLost, p.Leader(), err)
	}
	p.mu.Lock()
	if p.closed {
		// Close won the race while we were dialling: a connection handed
		// out now would never be torn down by Close.
		p.mu.Unlock()
		c.Close()
		p.putToken()
		return nil, ErrPoolClosed
	}
	p.redials++
	p.mu.Unlock()
	return c, nil
}

// Put returns a borrowed connection. Poisoned connections, and
// connections to a node that no longer leads, are closed and dropped —
// the next Get redials their replacement.
func (p *Pool) Put(c *Client) {
	if c != nil {
		if c.Lost() {
			p.noteDiscard()
			c.Close()
		} else {
			p.mu.Lock()
			keep := !p.closed && c.addr == p.leader
			if keep {
				p.idle = append(p.idle, c)
			}
			p.mu.Unlock()
			if !keep {
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

// Close tears the pool down: idle and replica connections close now,
// borrowed ones close when returned, and pending/future Gets fail with
// ErrPoolClosed.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	for _, c := range p.replicas {
		idle = append(idle, c)
	}
	p.idle, p.replicas = nil, nil
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
	Failovers uint64 // leader changes Failover made

	Calls              uint64 // completed request round-trips to the leader
	P50, P90, P99, Max time.Duration
}

// Stats reports the pool's reconnection counters and RTT quantiles.
func (p *Pool) Stats() PoolStats {
	s := p.rtt.Snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Idle: len(p.idle), Redials: p.redials, Discarded: p.discarded, Failovers: p.failovers,
		Calls: s.Count, P50: s.Quantile(50), P90: s.Quantile(90),
		P99: s.Quantile(99), Max: s.Max,
	}
}

// borrow runs fn on a borrowed connection and returns the connection.
// If fn does not return — it panicked, or called runtime.Goexit — the
// connection is closed instead, so the server aborts the transaction or
// releases the snapshot fn left open; back on the idle list they would
// stay held by a session whose idle deadline each reuse moves on.
func (p *Pool) borrow(fn func(*Client) error) error {
	c, err := p.Get()
	if err != nil {
		return err
	}
	returned := false
	defer func() {
		if !returned {
			c.Close()
		}
		p.Put(c)
	}()
	err = fn(c)
	returned = true
	return err
}

// Run borrows a connection and executes fn as one top-level transaction
// on the leader (see [Client.Run]).
func (p *Pool) Run(fn func(*Tx) error) error {
	return p.borrow(func(c *Client) error { return c.Run(fn) })
}

// RunReadOnly borrows a connection and executes fn as one read-only
// snapshot transaction on the leader (see [Client.RunReadOnly]).
func (p *Pool) RunReadOnly(fn func(*Snapshot) error) error {
	return p.borrow(func(c *Client) error { return c.RunReadOnly(fn) })
}

// RunRetry is Run, retrying up to attempts times with jittered backoff
// while the failure is in the retry set the [Pool] doc names. attempts
// values below 1 are clamped to 1.
func (p *Pool) RunRetry(attempts int, fn func(*Tx) error) error {
	return clock.Retry(clock.Real{}, attempts, retryBase, nil, p.retryable, func() error { return p.Run(fn) })
}

// retryable is RunRetry's retry set. A lost connection or a read_only
// refusal on a pool that knows a second endpoint first probes for the
// leader, so the next attempt goes wherever it is now.
func (p *Pool) retryable(err error) bool {
	switch {
	case isDeadlock(err):
		return true
	case len(p.addrs) == 1:
		return errors.Is(err, ErrConnLost)
	case errors.Is(err, ErrConnLost), errors.Is(err, ErrReadOnly):
		_ = p.Failover() // a probe that finds no leader leaves the next attempt to report it
		return true
	}
	return false
}

// State reads an object's committed-to-root state (see [Client.State]),
// preferring the pool's other endpoints and falling back to the leader.
// A replica's answer may trail the leader by the replication lag.
func (p *Pool) State(obj string) (nestedtx.State, error) {
	var lastErr error
	for _, addr := range p.readOrder() {
		c, err := p.replicaConn(addr)
		if err != nil {
			lastErr = err
			continue
		}
		st, err := c.State(obj)
		if err == nil {
			return st, nil
		}
		lastErr = err
		if !errors.Is(err, ErrConnLost) {
			// The replica answered (e.g. object unknown there because it
			// is still catching up): the leader settles it below.
			break
		}
	}
	// No replica could answer: the leader always can.
	var st nestedtx.State
	err := p.borrow(func(c *Client) (err error) {
		st, err = c.State(obj)
		return err
	})
	if err != nil && lastErr != nil {
		return nil, fmt.Errorf("replica reads failed (%v); leader: %w", lastErr, err)
	}
	return st, err
}

// readOrder returns the replica addresses to try, rotated round-robin,
// with the current leader excluded (it is the fallback, not a target).
func (p *Pool) readOrder() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var reps []string
	for _, a := range p.addrs {
		if a != p.leader {
			reps = append(reps, a)
		}
	}
	if len(reps) > 1 {
		k := p.next % len(reps)
		p.next++
		reps = append(reps[k:], reps[:k]...)
	}
	return reps
}

// replicaConn returns a healthy cached connection to addr, dialling if
// needed.
func (p *Pool) replicaConn(addr string) (*Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	c := p.replicas[addr]
	p.mu.Unlock()
	if c != nil && !c.Lost() {
		return c, nil
	}
	fresh, err := Dial(addr, p.opts...)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fresh.Close()
		return nil, ErrPoolClosed
	}
	if old := p.replicas[addr]; old != nil {
		old.Close()
	}
	p.replicas[addr] = fresh
	p.mu.Unlock()
	return fresh, nil
}

// Failover probes every known endpoint for the current leader and, on a
// change, repoints the pool at it. Concurrent callers coalesce: whoever
// holds probeMu probes, callers that were queued behind a completed
// probe inherit its result without re-probing. The state mutex is never
// held across the network dials, so Leader, State and Run proceed while
// a probe is stuck on a dead endpoint. Returns nil if a leader (new or
// unchanged) is reachable.
func (p *Pool) Failover() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	probesBefore := p.probes
	p.mu.Unlock()

	p.probeMu.Lock()
	defer p.probeMu.Unlock()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	if p.probes != probesBefore {
		// A probe round completed while this caller was queued behind
		// probeMu: inherit its outcome instead of re-probing — an
		// immediate rerun would see the same cluster.
		err := p.lastProbe
		p.mu.Unlock()
		return err
	}
	p.mu.Unlock()

	leader, outcome := p.probe()

	p.mu.Lock()
	p.probes++
	p.lastProbe = outcome
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	var stale []*Client
	if outcome == nil && leader != p.leader {
		p.leader = leader
		p.failovers++
		stale, p.idle = p.idle, nil
	}
	p.mu.Unlock()
	for _, c := range stale {
		c.Close()
	}
	return outcome
}

// probe asks the endpoints, in order, for their replication role and
// returns the first that answers as leader.
func (p *Pool) probe() (string, error) {
	var firstErr error
	for _, addr := range p.addrs {
		role, err := probeRole(addr, p.opts)
		if err == nil && role == "leader" {
			return addr, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("no endpoint in %v answers as leader", p.addrs)
	}
	return "", fmt.Errorf("client: failover: %w", firstErr)
}

// probeRole asks one endpoint for its replication role. A METRICS
// answer without a replication block comes from a standalone writable
// server; any error says nothing about the role and is reported as a
// probe failure. A follower that has lost its leader still answers as a
// follower: only an explicit promotion changes its role.
func probeRole(addr string, opts []Option) (string, error) {
	c, err := Dial(addr, opts...)
	if err != nil {
		return "", err
	}
	defer c.Close()
	m, err := c.Metrics(false)
	if err != nil {
		return "", err
	}
	if m.ReplStatus == nil {
		return "leader", nil
	}
	return m.ReplStatus.Role, nil
}

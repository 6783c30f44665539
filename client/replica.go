package client

import (
	"errors"
	"fmt"
	"sync"

	"nestedtx"
	"nestedtx/internal/wire"
)

// ReplicaPool fronts a replicated deployment: a [Pool] of connections
// to the current leader for transactions, plus one connection to each
// read replica for committed-state reads. It knows two things a plain
// Pool does not:
//
//   - ReadState prefers replicas (round-robin), falling back through
//     the remaining replicas to the leader, so read load leaves the
//     leader's sessions free for transactions. A replica read returns
//     replicated committed-to-root state, which may trail the leader by
//     the replication lag — the usual asynchronous-replica contract.
//   - Writes that fail with [ErrReadOnly] or [ErrConnLost] trigger a
//     failover probe: every known endpoint is asked REPL_STATUS, and if
//     one now answers as leader (e.g. an operator promoted a follower
//     after a leader crash), the transaction pool is rebuilt against it
//     and the transaction retried.
//
// A ReplicaPool is safe for concurrent use.
type ReplicaPool struct {
	size int
	opts []Option

	// probeMu serialises Failover's endpoint probing. It is a separate
	// mutex so a probe's network dials never stall readers of the state
	// below: rp.mu is only ever held for field access, never across I/O.
	// Lock order: probeMu before mu, never the reverse.
	probeMu sync.Mutex

	mu       sync.Mutex
	leader   string
	addrs    []string // every known endpoint, leader included
	pool     *Pool    // transaction pool to the current leader
	replicas map[string]*Client
	next     int // round-robin cursor over non-leader addrs
	closed   bool

	failovers uint64
	probes    uint64 // completed Failover probe rounds, for coalescing
	lastProbe error  // outcome of the last round (nil = leader reachable)
}

// NewReplicaPool connects a transaction pool of size connections to
// leader and remembers replicas for read routing and failover probing
// (replica connections are dialled lazily). opts apply to every dial.
func NewReplicaPool(leader string, replicas []string, size int, opts ...Option) (*ReplicaPool, error) {
	pool, err := NewPool(leader, size, opts...)
	if err != nil {
		return nil, err
	}
	addrs := append([]string{leader}, replicas...)
	return &ReplicaPool{
		size: size, opts: opts,
		leader: leader, addrs: addrs, pool: pool,
		replicas: make(map[string]*Client),
	}, nil
}

// Leader returns the address transactions currently go to.
func (rp *ReplicaPool) Leader() string {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.leader
}

// Failovers counts successful leader switches.
func (rp *ReplicaPool) Failovers() uint64 {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.failovers
}

// readOrder returns the replica addresses to try, rotated round-robin,
// with the current leader excluded (it is the fallback, not a target).
func (rp *ReplicaPool) readOrder() []string {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var reps []string
	for _, a := range rp.addrs {
		if a != rp.leader {
			reps = append(reps, a)
		}
	}
	if len(reps) > 1 {
		k := rp.next % len(reps)
		rp.next++
		reps = append(reps[k:], reps[:k]...)
	}
	return reps
}

// replicaConn returns a healthy cached connection to addr, dialling if
// needed.
func (rp *ReplicaPool) replicaConn(addr string) (*Client, error) {
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		return nil, ErrPoolClosed
	}
	c := rp.replicas[addr]
	rp.mu.Unlock()
	if c != nil && !c.Lost() {
		return c, nil
	}
	fresh, err := Dial(addr, rp.opts...)
	if err != nil {
		return nil, err
	}
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		fresh.Close()
		return nil, ErrPoolClosed
	}
	if old := rp.replicas[addr]; old != nil {
		old.Close()
	}
	rp.replicas[addr] = fresh
	rp.mu.Unlock()
	return fresh, nil
}

// txPool snapshots the current transaction pool under rp.mu. Failover
// swaps and closes rp.pool concurrently; callers must work on a
// snapshot, never read the field directly. A transaction in flight on a
// swapped-out pool finishes safely: Pool.Close only closes idle
// connections, and a borrowed connection returned to a closed pool is
// closed on Put.
func (rp *ReplicaPool) txPool() *Pool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.pool
}

// ReadState reads an object's committed-to-root state, preferring
// replicas and falling back to the leader. Replica answers may trail
// the leader by the replication lag.
func (rp *ReplicaPool) ReadState(obj string) (nestedtx.State, error) {
	var lastErr error
	for _, addr := range rp.readOrder() {
		c, err := rp.replicaConn(addr)
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
	pool := rp.txPool()
	c, err := pool.Get()
	if err != nil {
		if lastErr != nil {
			return nil, fmt.Errorf("replica reads failed (%v); leader: %w", lastErr, err)
		}
		return nil, err
	}
	defer pool.Put(c)
	return c.State(obj)
}

// Run executes fn as one top-level transaction on the current leader.
// If the leader refuses as read-only or its connections are gone, one
// failover probe runs and — on a leader change — fn is retried once.
// (fn may have partially run before the failure; like Pool.RunRetry,
// this is safe because a transaction on a lost or read-only session
// never commits.)
func (rp *ReplicaPool) Run(fn func(*Tx) error) error {
	err := rp.txPool().Run(fn)
	if err == nil || (!errors.Is(err, ErrReadOnly) && !errors.Is(err, ErrConnLost)) {
		return err
	}
	if ferr := rp.Failover(); ferr != nil {
		return errors.Join(err, ferr)
	}
	return rp.txPool().Run(fn)
}

// RunRetry is Run with Pool.RunRetry's retry policy on top: deadlock
// victims and lost connections are retried with backoff, and a leader
// change is chased through Failover between attempts.
func (rp *ReplicaPool) RunRetry(attempts int, fn func(*Tx) error) error {
	return retry(attempts, func(err error) bool {
		return isDeadlock(err) || errors.Is(err, ErrConnLost) || errors.Is(err, ErrReadOnly)
	}, func() error { return rp.Run(fn) })
}

// Failover probes every known endpoint for the current leader and, on
// a change, repoints the transaction pool at it. Concurrent callers
// coalesce: whoever holds probeMu probes, callers that were queued
// behind a completed probe inherit its result without re-probing. The
// state mutex is never held across the network dials, so Leader,
// ReadState and Run proceed while a probe is stuck on a dead endpoint.
// Returns nil if a leader (new or unchanged) is reachable.
func (rp *ReplicaPool) Failover() error {
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		return ErrPoolClosed
	}
	probesBefore := rp.probes
	addrs := append([]string(nil), rp.addrs...)
	rp.mu.Unlock()

	rp.probeMu.Lock()
	defer rp.probeMu.Unlock()

	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		return ErrPoolClosed
	}
	if rp.probes != probesBefore {
		// A probe round completed while this caller was queued behind
		// probeMu: inherit its outcome instead of re-probing — an
		// immediate rerun would see the same cluster.
		err := rp.lastProbe
		rp.mu.Unlock()
		return err
	}
	rp.mu.Unlock()

	var firstErr error
	newLeader, switched := "", false
	var newPool *Pool
	for _, addr := range addrs {
		role, err := probeRole(addr, rp.opts)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if role != "leader" {
			continue
		}
		newLeader = addr
		if addr == rp.Leader() {
			break // unchanged; the pool redials on its own
		}
		pool, err := NewPool(addr, rp.size, rp.opts...)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			newLeader = ""
			continue
		}
		newPool, switched = pool, true
		break
	}

	var outcome error
	if newLeader == "" {
		if firstErr == nil {
			firstErr = fmt.Errorf("no endpoint in %v answers as leader", addrs)
		}
		outcome = fmt.Errorf("client: failover: %w", firstErr)
	}

	rp.mu.Lock()
	rp.probes++
	rp.lastProbe = outcome
	if rp.closed {
		rp.mu.Unlock()
		if newPool != nil {
			newPool.Close()
		}
		return ErrPoolClosed
	}
	var oldPool *Pool
	if switched {
		oldPool = rp.pool
		rp.pool = newPool
		rp.leader = newLeader
		rp.failovers++
	}
	rp.mu.Unlock()
	if oldPool != nil {
		oldPool.Close()
	}
	return outcome
}

// probeRole asks one endpoint for its replication role. A server
// without replication configured answers REPL_STATUS with
// wire.CodeNotConfigured — that, and only that, marks a standalone
// writable server; any other server-side error (bad_request, too_large,
// internal, …) says nothing about the role and is reported as a probe
// failure.
func probeRole(addr string, opts []Option) (string, error) {
	c, err := Dial(addr, opts...)
	if err != nil {
		return "", err
	}
	defer c.Close()
	rs, err := c.ReplStatus()
	if err != nil {
		var e *Error
		if errors.As(err, &e) && e.Code == wire.CodeNotConfigured {
			// Replication not configured: a standalone writable server.
			return "leader", nil
		}
		return "", err
	}
	if rs.Role == "follower" && !rs.Connected {
		// A follower that has lost its leader is still a follower — only
		// an explicit promotion changes its role.
		return "follower", nil
	}
	return rs.Role, nil
}

// Close tears down the transaction pool and every replica connection.
func (rp *ReplicaPool) Close() error {
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		return nil
	}
	rp.closed = true
	pool := rp.pool
	reps := rp.replicas
	rp.replicas = nil
	rp.mu.Unlock()
	for _, c := range reps {
		c.Close()
	}
	return pool.Close()
}

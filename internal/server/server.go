// Package server exposes a nestedtx.Manager over TCP — the Argus
// deployment scenario: many remote clients sharing one transaction
// universe. It speaks the internal/wire protocol; package client is the
// matching Go client.
//
// Each connection is a session. A session owns the transaction handles
// it opens: BEGIN starts a server-side top-level transaction whose body
// is a command loop driven by the session's subsequent requests, SUB
// nests a child loop inside it (mirroring Tx.Sub's stack discipline),
// and READ/WRITE/COMMIT/ABORT are executed by the loop owning the
// handle. Concurrent sessions therefore map onto concurrent top-level
// transactions of the shared Manager, and every locking, inheritance
// and deadlock-detection rule of the runtime applies across the network
// exactly as in-process. With the Manager in recording mode, a server
// run's schedule remains machine-checkable by Manager.Verify after
// [Server.Shutdown] has drained the sessions.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nestedtx"
	"nestedtx/internal/adt"
	"nestedtx/internal/obs"
	"nestedtx/internal/repl"
	"nestedtx/internal/snap"
	"nestedtx/internal/wire"
)

func newBufReader(c net.Conn) *bufio.Reader { return bufio.NewReaderSize(c, 32<<10) }
func newBufWriter(c net.Conn) *bufio.Writer { return bufio.NewWriterSize(c, 32<<10) }

// Config parameterises a Server.
type Config struct {
	// MaxConns caps concurrent sessions; excess connections are refused
	// with a busy frame (connection-limit backpressure). <= 0 means
	// unlimited.
	MaxConns int
	// IdleTimeout is how long a session may sit with no request before
	// the reaper aborts its transactions and closes it, reclaiming locks
	// from abandoned clients. <= 0 disables reaping.
	IdleTimeout time.Duration
	// RequestTimeout is the per-request deadline: a request (typically an
	// access blocked on a lock) that cannot complete within it aborts its
	// transaction and fails with a timeout frame. <= 0 means the default
	// of 10s.
	RequestTimeout time.Duration
	// Follower, when non-nil, runs the server as a read replica: it
	// serves STATE and read-only transactions from the follower's
	// replicated store, rejects every locking transaction verb with
	// CodeReadOnly, and stays promotable (see [Server.Promote]). New's
	// mgr argument may be nil in this mode. The caller owns starting
	// Follower.Run.
	Follower *repl.Follower
	// PromoteOptions are the Manager options a promotion opens the
	// inherited data directory with (recording mode, tracing, ...).
	PromoteOptions []nestedtx.Option
}

const defaultRequestTimeout = 10 * time.Second

// Counters are the server's own counters, exposed (with the lock
// manager's) via STATS.
//
// A [Server.Counters] snapshot is mutually consistent: all fields are
// updated and copied under one lock, never read field-by-field from
// independent atomics. Cross-field invariants therefore hold in every
// snapshot — in particular Commits + Aborts <= TxBegun (a transaction's
// outcome is never visible before its beginning) and snapshots taken in
// sequence are monotone per field.
type Counters struct {
	ActiveSessions  int64
	TotalSessions   uint64
	ReapedSessions  uint64
	RejectedConns   uint64
	Requests        uint64
	TxBegun         uint64
	Commits         uint64
	Aborts          uint64
	DeadlockVictims uint64
	// SnapshotTxs counts read-only snapshot transactions begun; kept out
	// of TxBegun so Commits + Aborts <= TxBegun stays an invariant.
	SnapshotTxs uint64
}

// Server serves one Manager's transaction universe over a listener.
type Server struct {
	mgr *nestedtx.Manager
	cfg Config

	cmu sync.Mutex // guards cnt; see Counters' consistency contract
	cnt Counters

	mu       sync.Mutex
	mgrMu    sync.Mutex // guards mgr/follower/promoting/shipper across Promote
	ln       net.Listener
	sessions map[*session]struct{}
	closed   bool
	reapStop chan struct{}
	wg       sync.WaitGroup // live session goroutines

	// Exactly one of mgr and follower is live: a promotion keeps the
	// follower (and so its store) in place, flagged promoting, until the
	// recovered manager is installed in the same critical section that
	// retires it.
	follower  *repl.Follower // non-nil while serving as a read replica
	promoting bool           // a Promote holds the follower; reads go on, writes wait
	shipper   *repl.Shipper  // non-nil while serving a durable leader
}

// New returns a Server for mgr. The objects clients may touch must be
// Registered on mgr before Serve. With cfg.Follower set the server is a
// read replica and mgr may be nil; a durable mgr makes the server a
// replication leader (followers may connect with REPL_HELLO).
func New(mgr *nestedtx.Manager, cfg Config) *Server {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = defaultRequestTimeout
	}
	s := &Server{
		mgr:      mgr,
		cfg:      cfg,
		follower: cfg.Follower,
		sessions: make(map[*session]struct{}),
		reapStop: make(chan struct{}),
	}
	if mgr != nil && mgr.Durable() {
		s.shipper = repl.NewShipper(mgr.WAL(), mgr.Metrics())
	}
	return s
}

// Manager returns the served manager (for post-drain Verify / State).
// Nil while the server is a follower that has not been promoted.
func (s *Server) Manager() *nestedtx.Manager {
	s.mgrMu.Lock()
	defer s.mgrMu.Unlock()
	return s.mgr
}

// Follower returns the replica state (nil on a leader).
func (s *Server) Follower() *repl.Follower {
	s.mgrMu.Lock()
	defer s.mgrMu.Unlock()
	return s.follower
}

// readSide is the one place that decides where this node's reads come
// from right now: the committed-version store STATE and read-only
// transactions are answered from, and the metrics registry beside it —
// the manager's on a leader, the replica's on a follower, and still the
// replica's while a promotion is recovering the manager that will
// replace it. Both are nil only on a server given neither.
func (s *Server) readSide() (*snap.Store, *obs.Metrics) {
	s.mgrMu.Lock()
	defer s.mgrMu.Unlock()
	switch {
	case s.mgr != nil:
		return s.mgr.Store(), s.mgr.Metrics()
	case s.follower != nil:
		return s.follower.Store(), s.follower.Metrics()
	}
	return nil, nil
}

// Metrics returns the live node's metrics registry: the replica's until
// a promotion installs the manager, the manager's after (and always, on
// a leader).
func (s *Server) Metrics() *obs.Metrics {
	_, met := s.readSide()
	return met
}

// errNoReadSide answers a read verb on a server with no node behind it.
func errNoReadSide() *wire.Response {
	return fail(wire.CodeInternal, "server: no manager or replica to read from")
}

// refuseLocking is the gate in front of every locking transaction verb:
// nil once a manager is live, otherwise the read_only refusal retrying
// clients already chase to the leader.
func (s *Server) refuseLocking() *wire.Response {
	s.mgrMu.Lock()
	defer s.mgrMu.Unlock()
	switch {
	case s.mgr != nil:
		return nil
	case s.follower != nil && !s.promoting:
		// A read replica serves no locking transactions at all — not even
		// reads: a replica read is a plain committed-state read (STATE)
		// or a read-only transaction, never a locked access.
		return fail(wire.CodeReadOnly,
			fmt.Sprintf("server: read-only replica of %s; transactions go to the leader", s.follower.Leader()))
	}
	return fail(wire.CodeReadOnly, "server: promotion in progress; retry")
}

func (s *Server) shipperRef() *repl.Shipper {
	s.mgrMu.Lock()
	defer s.mgrMu.Unlock()
	return s.shipper
}

// Promote turns a follower server into a leader: streaming stops, the
// inherited data directory is recovered by nestedtx.OpenDurable, the
// recovered history is re-certified by Recovery.Verify (Theorem 34 must
// hold for the state the new leader will serve — a promotion that fails
// verification is refused), and only then does the server start
// accepting writes and shipping to its own followers. The recovered
// objects are Registered on the new manager by recovery itself. Reads
// are answered from the replica's store throughout (see readSide); only
// locking verbs are told to retry.
func (s *Server) Promote() (*nestedtx.Recovery, error) {
	s.mgrMu.Lock()
	f := s.follower
	if f == nil || s.promoting {
		s.mgrMu.Unlock()
		return nil, errors.New("server: not a follower")
	}
	s.promoting = true // claim the promotion; concurrent calls fail above
	s.mgrMu.Unlock()

	mgr, rec, err := recoverLeader(f, s.cfg.PromoteOptions)
	s.mgrMu.Lock()
	defer s.mgrMu.Unlock()
	s.promoting = false
	if err != nil {
		return nil, err // still a follower: its log may be closed, its store serves reads
	}
	s.mgr, s.follower = mgr, nil
	s.shipper = repl.NewShipper(mgr.WAL(), mgr.Metrics())
	return rec, nil
}

// recoverLeader is the slow middle of a promotion: close the replica's
// log, recover its directory as a durable manager, re-verify it.
func recoverLeader(f *repl.Follower, opts []nestedtx.Option) (*nestedtx.Manager, *nestedtx.Recovery, error) {
	if err := f.Close(); err != nil {
		return nil, nil, fmt.Errorf("server: promote: close replica log: %w", err)
	}
	mgr, rec, err := nestedtx.OpenDurable(f.Dir(), f.WalOptions(), opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("server: promote: recover %s: %w", f.Dir(), err)
	}
	if err := rec.Verify(); err != nil {
		mgr.CloseWAL()
		return nil, nil, fmt.Errorf("server: promote: inherited history fails verification: %w", err)
	}
	return mgr, rec, nil
}

// Counters returns a consistent snapshot of the server counters (see
// the type's consistency contract).
func (s *Server) Counters() Counters {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.cnt
}

// count applies one counter mutation under the counter lock. Every
// update goes through here, so snapshots never observe a torn state.
func (s *Server) count(f func(*Counters)) {
	s.cmu.Lock()
	f(&s.cnt)
	s.cmu.Unlock()
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts sessions on ln until Shutdown closes it. It returns nil
// after a graceful Shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	if s.cfg.IdleTimeout > 0 {
		go s.reapLoop()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		if s.cfg.MaxConns > 0 && s.Counters().ActiveSessions >= int64(s.cfg.MaxConns) {
			s.count(func(c *Counters) { c.RejectedConns++ })
			go refuse(conn)
			continue
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// refuse tells a connection the server is full, then closes it.
func refuse(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	bw := newBufWriter(conn)
	wire.WriteFrame(bw, &wire.Response{OK: false, Code: wire.CodeBusy,
		Err: "server: connection limit reached"})
}

// Shutdown drains the server: the listener closes, every session's
// in-flight transactions are aborted cleanly (so a recorded schedule
// stays well-formed and verifiable), and all session goroutines are
// awaited. It returns ctx.Err() if the drain outlives ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	close(s.reapStop)
	open := make([]*session, 0, len(s.sessions))
	for ss := range s.sessions {
		open = append(open, ss)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, ss := range open {
		ss.close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if f := s.Follower(); f != nil {
			return f.Close()
		}
		if m := s.Manager(); m != nil {
			// On a durable manager every acknowledged commit was fsynced
			// before its reply went out, so the drain leaves nothing
			// volatile; the final flush covers group-commit stragglers that
			// were never acknowledged and costs one fsync at most.
			return m.SyncWAL()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// reapLoop periodically aborts and closes sessions that have been idle —
// no request in flight and none received — for IdleTimeout, so
// abandoned clients cannot pin locks forever.
func (s *Server) reapLoop() {
	period := s.cfg.IdleTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-s.cfg.IdleTimeout).UnixNano()
		s.mu.Lock()
		var stale []*session
		for ss := range s.sessions {
			if !ss.inFlight.Load() && ss.lastActive.Load() < cutoff {
				stale = append(stale, ss)
			}
		}
		s.mu.Unlock()
		for _, ss := range stale {
			s.count(func(c *Counters) { c.ReapedSessions++ })
			ss.close()
		}
	}
}

// session is one connection's state. All fields below the atomics are
// touched only by the session's own goroutine.
type session struct {
	srv    *Server
	conn   net.Conn
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // top-level transaction runner goroutines

	lastActive atomic.Int64 // unix nanos of last request activity
	inFlight   atomic.Bool  // a request is being handled right now

	txs map[uint64]*txHandle
	// ros are the open read-only transactions. One never touches the
	// lock manager, which is why its verbs bypass the locking gate, and
	// it holds its own store, so it outlives a promotion or a replica's
	// checkpoint install.
	ros    map[uint64]*snap.Tx
	nextTx uint64 // shared id space for txs and ros
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	ss := &session{srv: s, conn: conn, ctx: ctx, cancel: cancel,
		txs: make(map[uint64]*txHandle), ros: make(map[uint64]*snap.Tx)}
	ss.lastActive.Store(time.Now().UnixNano())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		conn.Close()
		return
	}
	s.sessions[ss] = struct{}{}
	s.mu.Unlock()
	s.count(func(c *Counters) { c.ActiveSessions++; c.TotalSessions++ })
	defer func() {
		// Abort whatever the client left open, wait for the transaction
		// goroutines to finish (so Shutdown → Verify sees quiescence),
		// then deregister.
		cancel()
		conn.Close()
		ss.wg.Wait()
		// Release any snapshot pins the client left open so the version
		// store can trim the history they were holding.
		for _, ro := range ss.ros {
			ro.Close()
		}
		s.mu.Lock()
		delete(s.sessions, ss)
		s.mu.Unlock()
		s.count(func(c *Counters) { c.ActiveSessions-- })
	}()

	br := newBufReader(conn)
	bw := newBufWriter(conn)
	for {
		req, err := wire.ReadRequest(br)
		if err != nil {
			return // EOF, reset, or reaped/drained under us
		}
		if req.Type == wire.TReplHello {
			// The connection becomes a replication push stream: the shipper
			// owns both directions until the follower disconnects. Marked
			// permanently in flight so the idle reaper leaves it alone.
			ss.inFlight.Store(true)
			ss.serveRepl(req, br, bw)
			return
		}
		ss.inFlight.Store(true)
		ss.lastActive.Store(time.Now().UnixNano())
		s.count(func(c *Counters) { c.Requests++ })
		resp := ss.handle(req)
		resp.Seq = req.Seq
		werr := wire.WriteFrameMax(bw, resp, wire.MaxResponseSize)
		ss.lastActive.Store(time.Now().UnixNano())
		ss.inFlight.Store(false)
		if werr != nil {
			return
		}
	}
}

// close aborts the session's transactions and tears down its connection;
// the session goroutine finishes the cleanup.
func (ss *session) close() {
	ss.cancel()
	ss.conn.Close()
}

// ---- transaction handles ----

// errAbortRequested is the sentinel a command loop returns when the
// client asked for ABORT: it makes the runtime roll the transaction
// back, and the handler maps it back to a successful ABORT response.
var errAbortRequested = errors.New("server: abort requested by client")

type cmdKind int

const (
	cmdOp cmdKind = iota
	cmdSub
	cmdFinish
)

type opResult struct {
	v   nestedtx.Value
	err error
}

type txCmd struct {
	kind  cmdKind
	obj   string
	op    adt.Op
	child *txHandle     // cmdSub
	abort bool          // cmdFinish
	reply chan opResult // cmdOp; buffered so the loop never blocks on it
}

// txHandle is one open transaction (top-level or sub) owned by a session.
type txHandle struct {
	id     uint64
	parent *txHandle // nil for top-level handles

	// treeCtx covers the whole top-level tree; cancelling it (per-request
	// timeout, session teardown) aborts every transaction in the tree.
	treeCtx    context.Context
	treeCancel context.CancelFunc

	cmds    chan txCmd
	started chan string   // tx.ID(), sent once the body is entered
	res     chan error    // the Run/Sub outcome, sent exactly once
	done    chan struct{} // closed after res is sent

	busyChild *txHandle // non-nil while a SUB is open under this handle
}

func (ss *session) newHandle(parent *txHandle) *txHandle {
	ss.nextTx++
	h := &txHandle{
		id:      ss.nextTx,
		parent:  parent,
		cmds:    make(chan txCmd),
		started: make(chan string, 1),
		res:     make(chan error, 1),
		done:    make(chan struct{}),
	}
	if parent == nil {
		h.treeCtx, h.treeCancel = context.WithCancel(ss.ctx)
	} else {
		h.treeCtx, h.treeCancel = parent.treeCtx, parent.treeCancel
	}
	return h
}

// root returns the top-level handle of h's tree.
func (h *txHandle) root() *txHandle {
	for h.parent != nil {
		h = h.parent
	}
	return h
}

// body is the command loop run as the transaction's body: it executes
// the session's requests against the live *nestedtx.Tx until the client
// finishes the handle or the tree's context is cancelled.
func (ss *session) body(h *txHandle) func(*nestedtx.Tx) error {
	return func(tx *nestedtx.Tx) error {
		h.started <- tx.ID()
		for {
			select {
			case cmd := <-h.cmds:
				switch cmd.kind {
				case cmdOp:
					v, err := tx.Do(cmd.obj, cmd.op)
					cmd.reply <- opResult{v, err}
				case cmdSub:
					// Runs the child's loop on this stack, exactly like a
					// local Tx.Sub body; we resume when the child finishes.
					err := tx.Sub(ss.body(cmd.child))
					cmd.child.res <- err
					close(cmd.child.done)
				case cmdFinish:
					if cmd.abort {
						return errAbortRequested
					}
					return nil
				}
			case <-h.treeCtx.Done():
				return h.treeCtx.Err()
			}
		}
	}
}

// ---- request handling ----

func (ss *session) handle(req *wire.Request) *wire.Response {
	// Read-only snapshot transactions bypass the locking gate below:
	// they never touch the lock manager, so a follower can serve them
	// (from its replicated version store) just as well as the leader.
	switch req.Type {
	case wire.TBegin:
		if req.ReadOnly {
			return ss.handleBeginRO()
		}
	case wire.TSub, wire.TRead, wire.TWrite, wire.TCommit, wire.TAbort:
		if _, ok := ss.ros[req.Tx]; ok {
			return ss.handleRO(req)
		}
	}
	switch req.Type {
	case wire.TBegin, wire.TSub, wire.TRead, wire.TWrite, wire.TCommit, wire.TAbort:
		if resp := ss.srv.refuseLocking(); resp != nil {
			return resp
		}
	}
	switch req.Type {
	case wire.TPing:
		return &wire.Response{OK: true}
	case wire.TStats:
		return ss.handleStats()
	case wire.TMetrics:
		return ss.handleMetrics(req.Dump)
	case wire.TState:
		return ss.handleState(req)
	case wire.TReplStatus:
		return ss.handleReplStatus()
	case wire.TPromote:
		return ss.handlePromote()
	case wire.TBegin:
		return ss.handleBegin()
	case wire.TSub:
		return ss.handleSub(req)
	case wire.TRead, wire.TWrite:
		return ss.handleOp(req)
	case wire.TCommit:
		return ss.handleFinish(req, false)
	case wire.TAbort:
		return ss.handleFinish(req, true)
	default:
		return fail(wire.CodeBadRequest, fmt.Sprintf("unknown request type %q", req.Type))
	}
}

func fail(code, msg string) *wire.Response {
	return &wire.Response{OK: false, Code: code, Err: msg}
}

// serveRepl hands a REPL_HELLO connection to the shipper. Only a
// durable leader ships; a follower or volatile server refuses.
func (ss *session) serveRepl(req *wire.Request, br *bufio.Reader, bw *bufio.Writer) {
	sh := ss.srv.shipperRef()
	if sh == nil {
		msg := "server: replication requires a durable leader"
		if ss.srv.Follower() != nil {
			msg = "server: cannot replicate from a follower"
		}
		wire.WriteFrameMax(bw, &wire.Response{Seq: req.Seq, OK: false,
			Code: wire.CodeBadRequest, Err: msg}, wire.MaxResponseSize)
		bw.Flush()
		return
	}
	sh.Serve(ss.ctx.Done(), ss.conn.RemoteAddr().String(), req, br, bw)
}

func (ss *session) handleReplStatus() *wire.Response {
	if f := ss.srv.Follower(); f != nil {
		return &wire.Response{OK: true, ReplStatus: f.Status()}
	}
	if sh := ss.srv.shipperRef(); sh != nil {
		return &wire.Response{OK: true, ReplStatus: sh.Status()}
	}
	return fail(wire.CodeNotConfigured, "server: replication not configured (volatile manager)")
}

func (ss *session) handlePromote() *wire.Response {
	if _, err := ss.srv.Promote(); err != nil {
		return fail(wire.CodeBadRequest, err.Error())
	}
	return &wire.Response{OK: true}
}

func (ss *session) handleStats() *wire.Response {
	c := ss.srv.Counters()
	var lk nestedtx.Stats
	if m := ss.srv.Manager(); m != nil {
		lk = m.Stats()
	}
	return &wire.Response{OK: true, Stats: &wire.Stats{
		ActiveSessions:  c.ActiveSessions,
		TotalSessions:   c.TotalSessions,
		ReapedSessions:  c.ReapedSessions,
		RejectedConns:   c.RejectedConns,
		Requests:        c.Requests,
		TxBegun:         c.TxBegun,
		Commits:         c.Commits,
		Aborts:          c.Aborts,
		DeadlockVictims: c.DeadlockVictims,
		SnapshotTxs:     c.SnapshotTxs,
		Acquires:        lk.Acquires,
		Waits:           lk.Waits,
		Deadlocks:       lk.Deadlocks,
		CommitMoves:     lk.CommitMoves,
		AbortReleases:   lk.AbortReleases,
		Wakeups:         lk.Wakeups,
		SpuriousWakeups: lk.SpuriousWakeups,
		MaxQueueDepth:   lk.MaxQueueDepth,
		LockShards:      lk.Shards,
		LockEscalations: lk.Escalations,
	}}
}

// maxTraceEntries caps a METRICS dump so the response frame stays under
// wire.MaxFrameSize even with long transaction names (~200 bytes per
// encoded entry against the 1 MiB frame limit).
const maxTraceEntries = 4096

func histQ(s obs.HistSnapshot) wire.HistQ {
	return wire.HistQ{
		Count: s.Count,
		SumNS: int64(s.Sum),
		P50NS: int64(s.Quantile(50)),
		P90NS: int64(s.Quantile(90)),
		P99NS: int64(s.Quantile(99)),
		MaxNS: int64(s.Max),
	}
}

func (ss *session) handleMetrics(dump bool) *wire.Response {
	_, met := ss.srv.readSide()
	if met == nil {
		return errNoReadSide()
	}
	s := met.Snapshot()
	m := &wire.Metrics{
		OpLatency:        histQ(s.OpLatency),
		TxLatency:        histQ(s.TxLatency),
		LockWait:         histQ(s.LockWait),
		TxCommits:        s.TxCommits,
		TxAborts:         s.TxAborts,
		VictimsDeadlock:  s.VictimsDeadlock,
		VictimsCancelled: s.VictimsCancelled,
		Victims:          s.Victims(),
		QueuedWaiters:    s.QueuedWaiters,
		ContendedObjects: s.ContendedObjects,
		ShardQueued:      s.ShardQueued,
		FsyncLatency:     histQ(s.FsyncLatency),
		WalAppends:       s.WalAppends,
		WalFsyncs:        s.WalFsyncs,
		WalMaxBatch:      uint64(s.WalMaxBatch),
		WalCheckpoints:   s.WalCheckpoints,
		WalCheckpointLSN: uint64(s.WalCheckpointLSN),

		ShipLatency:        histQ(s.ShipLatency),
		ReplBatches:        s.ReplBatches,
		ReplRecordsShipped: s.ReplRecordsShipped,
		ReplAcks:           s.ReplAcks,
		ReplBatchesApplied: s.ReplBatchesApplied,
		ReplRecordsApplied: s.ReplRecordsApplied,
		ReplFollowers:      s.ReplFollowers,
		ReplLagRecords:     s.ReplLagRecords,
		ReplLagSeconds:     s.ReplLag.Seconds(),

		SnapReadLatency: histQ(s.SnapReadLatency),
		SnapTxs:         s.SnapTxs,
		SnapReads:       s.SnapReads,
		SnapPublishes:   s.SnapPublishes,
		SnapPinned:      s.SnapPinned,
	}
	if dump && met.Tracer != nil {
		entries := met.Tracer.Dump()
		if len(entries) > maxTraceEntries {
			entries = entries[len(entries)-maxTraceEntries:]
		}
		m.Trace = make([]wire.TraceEntry, len(entries))
		for i, e := range entries {
			m.Trace[i] = wire.TraceEntry{
				Seq:    e.Seq,
				AtUnix: e.At.UnixNano(),
				Kind:   e.Kind,
				T:      e.T,
				Object: e.Object,
				DurNS:  int64(e.Dur),
			}
		}
		if total, kept := met.Tracer.Seq(), uint64(len(entries)); total > kept {
			m.TraceDropped = total - kept
		}
	}
	return &wire.Response{OK: true, Metrics: m}
}

func (ss *session) handleState(req *wire.Request) *wire.Response {
	store, _ := ss.srv.readSide()
	if store == nil {
		return errNoReadSide()
	}
	// The head of the committed chain: committed-to-root on a leader; on
	// a replica, replayed from records CRC-checked and value-verified on
	// apply.
	st, err := store.Head(req.Obj)
	if err != nil {
		return fail(wire.CodeBadRequest, err.Error())
	}
	raw, err := wire.EncodeState(st)
	if err != nil {
		return fail(wire.CodeInternal, err.Error())
	}
	// A snapshot the response frame cannot carry is an explicit, session-
	// preserving error — not a torn write that kills the connection. The
	// margin covers the response envelope around the state payload.
	if len(raw) > wire.MaxResponseSize-1024 {
		return fail(wire.CodeTooLarge, fmt.Sprintf(
			"server: state of %q is %d bytes, over the %d-byte response limit",
			req.Obj, len(raw), wire.MaxResponseSize))
	}
	return &wire.Response{OK: true, State: raw}
}

func (ss *session) handleBegin() *wire.Response {
	if ss.srv.isClosed() {
		return fail(wire.CodeShutdown, "server: draining")
	}
	h := ss.newHandle(nil)
	ss.wg.Add(1)
	go func() {
		defer ss.wg.Done()
		// attempts=1: the body is request-driven and cannot be replayed
		// server-side, so deadlock retry belongs to the remote client;
		// RunRetryCtx still gives per-request deadlines and session
		// teardown a cancellation point (including between any future
		// backoff attempts).
		ss.srv.count(func(c *Counters) { c.TxBegun++ })
		err := ss.srv.Manager().RunRetryCtx(h.treeCtx, 1, ss.body(h))
		if err == nil {
			ss.srv.count(func(c *Counters) { c.Commits++ })
		} else {
			ss.srv.count(func(c *Counters) { c.Aborts++ })
		}
		h.res <- err
		close(h.done)
	}()
	select {
	case txid := <-h.started:
		ss.txs[h.id] = h
		return &wire.Response{OK: true, Tx: h.id, TxID: txid}
	case <-h.done:
		return mapTxErr(<-h.res)
	}
}

// handleBeginRO opens a read-only snapshot transaction on whichever
// committed-version store this node reads from. It involves no locks,
// so long scans neither block nor are blocked by writers.
func (ss *session) handleBeginRO() *wire.Response {
	if ss.srv.isClosed() {
		return fail(wire.CodeShutdown, "server: draining")
	}
	store, met := ss.srv.readSide()
	if store == nil {
		return errNoReadSide()
	}
	ro := store.Begin(met)
	ss.srv.count(func(c *Counters) { c.SnapshotTxs++ })
	ss.nextTx++
	id := ss.nextTx
	ss.ros[id] = ro
	return &wire.Response{OK: true, Tx: id, TxID: ro.ID(), Snap: ro.Seq()}
}

// handleRO serves the transaction verbs on an open snapshot handle.
// Reads go straight to the pinned version chain; WRITE is refused with
// read_only; SUB is meaningless (there is nothing to nest — a snapshot
// cannot abort partially); COMMIT and ABORT are the same operation:
// release the pin.
func (ss *session) handleRO(req *wire.Request) *wire.Response {
	ro := ss.ros[req.Tx]
	switch req.Type {
	case wire.TRead:
		op, err := wire.DecodeOp(req.Op)
		if err != nil {
			return fail(wire.CodeBadRequest, err.Error())
		}
		v, err := ro.Read(req.Obj, op) // refuses a mutating op itself
		if err != nil {
			return fail(wire.CodeBadRequest, err.Error())
		}
		raw, err := wire.EncodeValue(v)
		if err != nil {
			return fail(wire.CodeInternal, err.Error())
		}
		return &wire.Response{OK: true, Value: raw}
	case wire.TWrite:
		return fail(wire.CodeReadOnly,
			fmt.Sprintf("transaction %d is a read-only snapshot; writes go to a locking transaction", req.Tx))
	case wire.TSub:
		return fail(wire.CodeBadRequest,
			fmt.Sprintf("transaction %d is a read-only snapshot; it cannot open subtransactions", req.Tx))
	default: // TCommit, TAbort
		ro.Close()
		delete(ss.ros, req.Tx)
		return &wire.Response{OK: true}
	}
}

func (ss *session) handleSub(req *wire.Request) *wire.Response {
	parent, resp := ss.lookup(req.Tx)
	if resp != nil {
		return resp
	}
	child := ss.newHandle(parent)
	cmd := txCmd{kind: cmdSub, child: child}
	if resp := ss.deliver(parent, cmd); resp != nil {
		return resp
	}
	select {
	case txid := <-child.started:
		parent.busyChild = child
		ss.txs[child.id] = child
		return &wire.Response{OK: true, Tx: child.id, TxID: txid}
	case <-child.done:
		// Sub refused to start (parent aborted under us).
		return mapTxErr(<-child.res)
	}
}

func (ss *session) handleOp(req *wire.Request) *wire.Response {
	h, resp := ss.lookup(req.Tx)
	if resp != nil {
		return resp
	}
	op, err := wire.DecodeOp(req.Op)
	if err != nil {
		return fail(wire.CodeBadRequest, err.Error())
	}
	if req.Type == wire.TRead && !op.ReadOnly() {
		return fail(wire.CodeBadRequest, fmt.Sprintf("READ with non-read-only op %v", op))
	}
	if req.Type == wire.TWrite && op.ReadOnly() {
		return fail(wire.CodeBadRequest, fmt.Sprintf("WRITE with read-only op %v", op))
	}
	cmd := txCmd{kind: cmdOp, obj: req.Obj, op: op, reply: make(chan opResult, 1)}
	if resp := ss.deliver(h, cmd); resp != nil {
		return resp
	}
	timer := time.NewTimer(ss.srv.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case r := <-cmd.reply:
		if r.err != nil {
			return ss.mapOpErr(r.err)
		}
		raw, err := wire.EncodeValue(r.v)
		if err != nil {
			return fail(wire.CodeInternal, err.Error())
		}
		return &wire.Response{OK: true, Value: raw}
	case <-timer.C:
		// The access is stuck (blocked on a lock past the request
		// deadline): abort the whole transaction tree, which unblocks it.
		h.treeCancel()
		<-cmd.reply
		// Wait for the tree to finish unwinding before answering, so the
		// session's next request deterministically sees a dead root: the
		// stale handles (this one, ancestors parked in SUB, the root) are
		// cleared by lookup and follow-ups report "aborted" rather than a
		// bogus "has open subtransaction". Cancellation makes the unwind
		// prompt — every loop in the tree selects treeCtx.Done.
		<-h.root().done
		return fail(wire.CodeTimeout,
			fmt.Sprintf("request exceeded %v; transaction aborted", ss.srv.cfg.RequestTimeout))
	}
}

func (ss *session) handleFinish(req *wire.Request, abort bool) *wire.Response {
	h, ok := ss.txs[req.Tx]
	if !ok {
		return fail(wire.CodeUnknownTx, fmt.Sprintf("no open transaction handle %d", req.Tx))
	}
	if treeDead(h) {
		// The whole tree already aborted (per-request timeout,
		// cancellation): this handle is stale. Drop it and answer what
		// the client needs to unwind — ABORT of a dead handle is the
		// idempotent no-op, COMMIT reports the abort. Each stale handle
		// is cleared on its own touch (not the whole tree at once), so a
		// client unwinding sub-by-sub gets a coherent answer at every
		// level instead of unknown_tx.
		delete(ss.txs, h.id)
		if abort {
			return &wire.Response{OK: true}
		}
		return fail(wire.CodeAborted, "transaction already aborted")
	}
	if h.busyChild != nil {
		return fail(wire.CodeBadRequest,
			fmt.Sprintf("transaction %d has open subtransaction %d", h.id, h.busyChild.id))
	}
	cmd := txCmd{kind: cmdFinish, abort: abort}
	select {
	case h.cmds <- cmd:
	case <-h.root().done: // tree already dead; res below is still delivered
	}
	var err error
	select {
	case err = <-h.res:
	case <-ss.ctx.Done():
		return fail(wire.CodeShutdown, "server: draining")
	}
	// The handle is finished either way: forget it.
	delete(ss.txs, h.id)
	if h.parent != nil {
		h.parent.busyChild = nil
	}
	if abort {
		if err == nil || errors.Is(err, errAbortRequested) ||
			errors.Is(err, nestedtx.ErrAborted) || errors.Is(err, context.Canceled) {
			return &wire.Response{OK: true}
		}
		return mapTxErr(err)
	}
	return mapTxErr(err)
}

// lookup resolves a handle id, rejecting unknown handles and handles
// whose command loop is parked under an open subtransaction. A handle
// whose tree has already died (per-request timeout abort, cancellation)
// is reported as aborted — not as "has open subtransaction" — and the
// touched handle is dropped, so a client that lost a subtransaction to
// a timeout gets coherent answers on the parent.
func (ss *session) lookup(id uint64) (*txHandle, *wire.Response) {
	h, ok := ss.txs[id]
	if !ok {
		return nil, fail(wire.CodeUnknownTx, fmt.Sprintf("no open transaction handle %d", id))
	}
	if treeDead(h) {
		delete(ss.txs, h.id)
		return nil, fail(wire.CodeAborted, "transaction already finished")
	}
	if h.busyChild != nil {
		return nil, fail(wire.CodeBadRequest,
			fmt.Sprintf("transaction %d has open subtransaction %d", id, h.busyChild.id))
	}
	return h, nil
}

// treeDead reports whether h's whole tree has finished (its root's
// outcome is delivered) — true for handles left stale by a timeout
// abort of the tree.
func treeDead(h *txHandle) bool {
	select {
	case <-h.root().done:
		return true
	default:
		return false
	}
}

// Stale handles of a dead tree are cleared lazily — each on its own
// next touch (lookup, finish or deliver). A client that abandons a dead
// tree's handles without touching them leaks the map entries until the
// session closes, which is bounded and harmless; clearing eagerly would
// instead make the *next* touch an unknown_tx, confusing clients that
// unwind a timed-out tree level by level (Sub aborts the child, Run
// then commits/aborts the parent). Only the session goroutine touches
// ss.txs, so no locking is needed.

// deliver hands cmd to h's command loop, failing fast if the loop is
// gone or cannot take it within the request deadline.
func (ss *session) deliver(h *txHandle, cmd txCmd) *wire.Response {
	timer := time.NewTimer(ss.srv.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case h.cmds <- cmd:
		return nil
	case <-h.root().done:
		delete(ss.txs, h.id)
		return fail(wire.CodeAborted, "transaction already finished")
	case <-timer.C:
		return fail(wire.CodeTimeout, "transaction busy")
	}
}

// mapOpErr converts an access error into its wire form, counting
// deadlock victims.
func (ss *session) mapOpErr(err error) *wire.Response {
	switch {
	case errors.Is(err, nestedtx.ErrDeadlock):
		ss.srv.count(func(c *Counters) { c.DeadlockVictims++ })
		return fail(wire.CodeDeadlock, err.Error())
	case errors.Is(err, nestedtx.ErrAborted):
		return fail(wire.CodeAborted, err.Error())
	case errors.Is(err, nestedtx.ErrUnknownObject):
		// The client named an object nobody registered; nothing on the
		// server failed.
		return fail(wire.CodeBadRequest, err.Error())
	default:
		return fail(wire.CodeInternal, err.Error())
	}
}

// mapTxErr converts a transaction outcome error into its wire form.
func mapTxErr(err error) *wire.Response {
	switch {
	case err == nil:
		return &wire.Response{OK: true}
	case errors.Is(err, nestedtx.ErrDeadlock):
		return fail(wire.CodeDeadlock, err.Error())
	case errors.Is(err, nestedtx.ErrAborted), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, errAbortRequested):
		return fail(wire.CodeAborted, err.Error())
	default:
		return fail(wire.CodeInternal, err.Error())
	}
}

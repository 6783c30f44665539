// Package server exposes a nestedtx.Manager over TCP — the Argus
// deployment scenario: many remote clients sharing one transaction
// universe. It speaks the internal/wire protocol; package client is the
// matching Go client.
//
// Each connection is a session: one goroutine that decodes a request
// and executes it where it stands. A session owns the transaction
// handles it opens, and each handle holds a live *nestedtx.Tx: BEGIN is
// Manager.Begin, SUB is Tx.Begin on the parent's handle, READ/WRITE are
// Tx.Do, COMMIT/ABORT are Tx.Commit/Tx.Abort. Concurrent sessions
// therefore map onto concurrent top-level transactions of the shared
// Manager, and every locking, inheritance and deadlock-detection rule of
// the runtime applies across the network exactly as in-process. With the
// Manager in recording mode, a server run's schedule remains
// machine-checkable by Manager.Verify after [Server.Shutdown] has drained
// the sessions.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
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
	// IdleTimeout is how long a session may wait for its next request,
	// or be stuck writing a reply, before it is torn down: its
	// transactions abort and their locks go to live clients. A
	// replication stream has no idle deadline. <= 0 means no limit.
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
// manager's) via METRICS; see [obs.ServerCounters] for the fields and the
// one-lock consistency contract a [Server.Counters] snapshot keeps.
type Counters = obs.ServerCounters

// Server serves one Manager's transaction universe over a listener.
type Server struct {
	mgr *nestedtx.Manager
	cfg Config

	cmu sync.Mutex // guards cnt; see Counters' consistency contract
	cnt Counters

	// ctx is the parent of every session's context; Shutdown cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex // guards ln
	mgrMu sync.Mutex // guards mgr/follower/promoting/shipper across Promote
	ln    net.Listener
	wg    sync.WaitGroup // live session goroutines

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
	s := &Server{mgr: mgr, cfg: cfg, follower: cfg.Follower}
	s.ctx, s.cancel = context.WithCancel(context.Background())
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
func errNoReadSide() wire.Response {
	return fail(wire.CodeInternal, "server: no manager or replica to read from")
}

// refuseLocking is the gate in front of every locking transaction verb:
// not refused once a manager is live, otherwise the read_only refusal
// retrying clients already chase to the leader.
func (s *Server) refuseLocking() (refusal wire.Response, refused bool) {
	s.mgrMu.Lock()
	defer s.mgrMu.Unlock()
	switch {
	case s.mgr != nil:
		return refusal, false
	case s.follower != nil && !s.promoting:
		// A read replica serves no locking transactions at all — not even
		// reads: a replica read is a plain committed-state read (STATE)
		// or a read-only transaction, never a locked access.
		return fail(wire.CodeReadOnly,
			fmt.Sprintf("server: read-only replica of %s; transactions go to the leader", s.follower.Leader())), true
	}
	return fail(wire.CodeReadOnly, "server: promotion in progress; retry"), true
}

// status is what METRICS reports of the node, from one read of mgrMu so
// a promotion cannot land between the blocks: readSide's registry, the
// live manager's lock counters, and the follower's or the shipper's
// replication position (nil without replication).
func (s *Server) status() (met *obs.Metrics, locks obs.LockStats, rs *wire.ReplStatus) {
	s.mgrMu.Lock()
	mgr, f, sh := s.mgr, s.follower, s.shipper
	s.mgrMu.Unlock()
	switch {
	case mgr != nil:
		met, locks = mgr.Metrics(), mgr.Stats()
		if sh != nil {
			rs = sh.Status()
		}
	case f != nil:
		met, rs = f.Metrics(), f.Status()
	}
	return met, locks, rs
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
	if s.isClosed() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		if !s.admit() {
			go refuse(conn)
			continue
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// admit counts a new connection as an active session, or as rejected
// when MaxConns sessions are active already. It runs on the accept
// goroutine, check and count in one step: counted later, by the
// session's own goroutine, a burst of connections would all pass the
// check before any of them ran.
func (s *Server) admit() bool {
	full := false
	s.count(func(c *Counters) {
		if full = s.cfg.MaxConns > 0 && c.ActiveSessions >= int64(s.cfg.MaxConns); full {
			c.RejectedConns++
		} else {
			c.ActiveSessions++
		}
	})
	return !full
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
// context is cancelled, so its in-flight transactions are aborted cleanly
// (a recorded schedule stays well-formed and verifiable), and all session
// goroutines are awaited. It returns ctx.Err() if the drain outlives ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	closed, ln := s.isClosed(), s.ln
	s.cancel()
	s.mu.Unlock()
	if closed {
		return nil
	}
	if ln != nil {
		ln.Close()
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

func (s *Server) isClosed() bool { return s.ctx.Err() != nil }

// session is one connection's state. Only the session's own goroutine
// touches it, but for parked and fired: the watchdog and the teardown
// hook use those.
type session struct {
	srv  *Server
	conn net.Conn
	ctx  context.Context

	// The request deadline: one timer, armed around each access, that
	// cancels the tree whose access is parked (see arm and expired). The
	// session's teardown hook cancels the same tree.
	watchdog *time.Timer
	parked   atomic.Pointer[nestedtx.Tx]
	fired    chan struct{}

	txs map[uint64]*txHandle
	// free holds up to maxFreeHandles finished handles for newHandle. A
	// dead tree's handles are stale, not finished, and never get here.
	free []*txHandle
	// ros are the open read-only transactions. One never touches the
	// lock manager, which is why its verbs bypass the locking gate, and
	// it holds its own store, so it outlives a promotion or a replica's
	// checkpoint install.
	ros    map[uint64]*snap.Tx
	nextTx uint64 // shared id space for txs and ros

	// val is where an access's result is encoded for the reply. A value
	// that outgrows it gets a buffer of its own, dropped with the reply,
	// so the session never retains its largest value.
	val [128]byte
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(s.ctx)
	ss := &session{srv: s, conn: conn, ctx: ctx, fired: make(chan struct{}, 1),
		txs: make(map[uint64]*txHandle), ros: make(map[uint64]*snap.Tx)}
	// Teardown (Shutdown, or the session's own end) closes the connection,
	// which ends a read or a reply write the session goroutine is blocked
	// in, and unblocks the one access it can be parked in; that goroutine
	// then aborts every tree on its way out. arm closes the race with this
	// hook. A connection accepted after Shutdown is torn down at once.
	context.AfterFunc(ctx, func() {
		conn.Close()
		if tree := ss.parked.Load(); tree != nil {
			tree.Cancel()
		}
	})
	s.count(func(c *Counters) { c.TotalSessions++ })
	defer func() {
		// Abort whatever the client left open — each tree innermost
		// first, the schedule a client unwinding by hand would have
		// produced — so Shutdown → Verify sees quiescence.
		cancel()
		for _, h := range ss.txs {
			if h.parent == nil && !h.dead {
				ss.abortTree(h)
			}
		}
		// Release any snapshot pins the client left open so the version
		// store can trim the history they were holding.
		for _, ro := range ss.ros {
			ro.Close()
		}
		s.count(func(c *Counters) { c.ActiveSessions-- })
	}()

	// The two buffers and the two frame structs are the session's, reused
	// for every frame. req.Op aliases br's buffer: the handler decodes it
	// before the next frame is read. req.Obj is the string the manager
	// registered, not a copy per request; a name nobody registered is
	// copied, and fails as unknown where it is used. A session opened on
	// a follower copies every name, a promotion notwithstanding.
	br := newBufReader(conn)
	bw := newBufWriter(conn)
	var req wire.Request
	var resp wire.Response
	if mgr := s.Manager(); mgr != nil {
		req.ObjHook = mgr.ObjectName
	}
	for {
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		if err := wire.ReadFrame(br, &req); err != nil {
			s.reaped(err)
			return // EOF, reset, idle past the deadline, or drained under us
		}
		if req.Type == wire.TReplHello {
			// The connection becomes a replication push stream: the shipper
			// owns both directions until the follower disconnects, with no
			// idle deadline (the leader heartbeats, the follower bounds its
			// own reads).
			conn.SetDeadline(time.Time{})
			ss.serveRepl(&req, br, bw)
			return
		}
		s.count(func(c *Counters) { c.Requests++ })
		resp = ss.handle(&req)
		resp.Seq = req.Seq
		if s.cfg.IdleTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		if err := wire.WriteFrameMax(bw, &resp, wire.MaxResponseSize); err != nil {
			s.reaped(err)
			return
		}
	}
}

// reaped counts a session whose read of a request, or write of a reply,
// outlived IdleTimeout: a client gone silent, or one that stopped reading.
func (s *Server) reaped(err error) {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		s.count(func(c *Counters) { c.ReapedSessions++ })
	}
}

// ---- transaction handles ----

// txHandle is one open transaction (top-level or sub) owned by a session.
type txHandle struct {
	id     uint64
	parent *txHandle // nil for top-level handles
	tx     *nestedtx.Tx
	child  *txHandle // non-nil while a SUB is open under this handle

	// Top-level handles only: dead marks a tree the session aborted as a
	// whole (request timeout), whose handles are now stale.
	dead bool
}

// maxFreeHandles is more than a client's usual tree of open handles.
const maxFreeHandles = 16

func (ss *session) newHandle(parent *txHandle, tx *nestedtx.Tx) wire.Response {
	ss.nextTx++
	var h *txHandle
	if n := len(ss.free); n > 0 {
		h, ss.free = ss.free[n-1], ss.free[:n-1]
	} else {
		h = new(txHandle)
	}
	*h = txHandle{id: ss.nextTx, parent: parent, tx: tx}
	if parent != nil {
		parent.child = h
	}
	ss.txs[h.id] = h
	return wire.Response{OK: true, Tx: h.id, TxID: tx.ID()}
}

// root returns the top-level handle of h's tree.
func (h *txHandle) root() *txHandle {
	for h.parent != nil {
		h = h.parent
	}
	return h
}

// returned settles the books for a handle whose transaction has
// returned: a subtransaction frees its parent, a top-level outcome is
// counted (before the reply is written).
func (ss *session) returned(h *txHandle, committed bool) {
	if h.parent != nil {
		h.parent.child = nil
		return
	}
	ss.srv.count(func(c *Counters) {
		if committed {
			c.Commits++
		} else {
			c.Aborts++
		}
	})
}

// abortTree aborts root's whole tree, innermost open subtransaction
// first, and leaves its handles stale. Each is cleared lazily, on its own
// next touch (see lookup): clearing eagerly would turn that touch into an
// unknown_tx and confuse a client unwinding the tree level by level. One
// that never touches them leaks map entries until the session closes,
// which is bounded and harmless.
func (ss *session) abortTree(root *txHandle) {
	root.tx.Abort()
	root.dead = true
	ss.returned(root, false)
}

// arm starts the request deadline of an access about to run in tree:
// the watchdog, one timer per session, cancels tree if it fires. tree is
// also what the teardown hook cancels: a hook that ran before the store
// saw an older tree, or none, but it ran after the session's context was
// done, so the check after the store sees that and cancels tree here.
func (ss *session) arm(tree *nestedtx.Tx) {
	ss.parked.Store(tree)
	if ss.ctx.Err() != nil {
		tree.Cancel()
	}
	if ss.watchdog != nil {
		ss.watchdog.Reset(ss.srv.cfg.RequestTimeout)
		return
	}
	ss.watchdog = time.AfterFunc(ss.srv.cfg.RequestTimeout, func() {
		ss.parked.Load().Cancel()
		ss.fired <- struct{}{}
	})
}

// expired stops the watchdog and reports whether it had fired. If so the
// cancel is already in: it cannot hit a later request's tree.
func (ss *session) expired() bool {
	if ss.watchdog.Stop() {
		return false
	}
	<-ss.fired
	return true
}

// ---- request handling ----

// verbs is the request table: what each verb runs, and whether it is a
// transaction verb that needs a live manager's lock tables.
var verbs = map[string]struct {
	locking bool
	run     func(*session, *wire.Request) wire.Response
}{
	wire.TPing:    {false, func(*session, *wire.Request) wire.Response { return wire.Response{OK: true} }},
	wire.TMetrics: {false, (*session).handleMetrics},
	wire.TState:   {false, (*session).handleState},
	wire.TPromote: {false, (*session).handlePromote},
	wire.TBegin:   {true, (*session).handleBegin},
	wire.TSub:     {true, (*session).handleSub},
	wire.TRead:    {true, (*session).handleOp},
	wire.TWrite:   {true, (*session).handleOp},
	wire.TCommit:  {true, (*session).handleFinish},
	wire.TAbort:   {true, (*session).handleFinish},
}

func (ss *session) handle(req *wire.Request) wire.Response {
	v, ok := verbs[req.Type]
	if !ok {
		return fail(wire.CodeBadRequest, fmt.Sprintf("unknown request type %q", req.Type))
	}
	if v.locking {
		// Read-only snapshot transactions bypass the locking gate: they
		// never touch the lock manager, so a follower can serve them
		// (from its replicated version store) just as well as the leader.
		if _, ro := ss.ros[req.Tx]; ro || req.Type == wire.TBegin && req.ReadOnly {
			return ss.handleRO(req)
		}
		if resp, refused := ss.srv.refuseLocking(); refused {
			return resp
		}
	}
	return v.run(ss, req)
}

func fail(code, msg string) wire.Response {
	return wire.Response{OK: false, Code: code, Err: msg}
}

// serveRepl hands a REPL_HELLO connection to the shipper. Only a
// durable leader ships; a follower or volatile server refuses.
func (ss *session) serveRepl(req *wire.Request, br *bufio.Reader, bw *bufio.Writer) {
	ss.srv.mgrMu.Lock()
	sh, f := ss.srv.shipper, ss.srv.follower
	ss.srv.mgrMu.Unlock()
	if sh == nil {
		msg := "server: replication requires a durable leader"
		if f != nil {
			msg = "server: cannot replicate from a follower"
		}
		wire.WriteFrameMax(bw, &wire.Response{Seq: req.Seq, OK: false,
			Code: wire.CodeBadRequest, Err: msg}, wire.MaxResponseSize)
		return
	}
	sh.Serve(ss.ctx.Done(), ss.conn.RemoteAddr().String(), req, br, bw)
}

func (ss *session) handlePromote(*wire.Request) wire.Response {
	if _, err := ss.srv.Promote(); err != nil {
		return fail(wire.CodeBadRequest, err.Error())
	}
	return wire.Response{OK: true}
}

// maxTraceEntries caps a METRICS dump so the response frame stays under
// wire.MaxResponseSize even with long transaction names (~200 bytes per
// encoded entry against the 8 MiB response limit).
const maxTraceEntries = 4096

func (ss *session) handleMetrics(req *wire.Request) wire.Response {
	counters := ss.srv.Counters()
	met, locks, rs := ss.srv.status()
	if met == nil {
		return errNoReadSide()
	}
	m := &wire.Metrics{ServerCounters: counters, LockStats: locks,
		Snapshot: met.Snapshot(), ReplStatus: rs}
	if req.Dump {
		m.Trace = met.Tracer.Dump()
	}
	if n := len(m.Trace); n > 0 {
		m.Trace = m.Trace[max(0, n-maxTraceEntries):]
		// The newest entry's Seq is the total traced as of this very dump.
		m.TraceDropped = m.Trace[len(m.Trace)-1].Seq - uint64(len(m.Trace))
	}
	return wire.Response{OK: true, Metrics: m}
}

func (ss *session) handleState(req *wire.Request) wire.Response {
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
	raw, err := adt.EncodeState(st)
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
	return wire.Response{OK: true, State: raw}
}

func (ss *session) handleBegin(*wire.Request) wire.Response {
	if ss.srv.isClosed() {
		return fail(wire.CodeShutdown, "server: draining")
	}
	// Deadlock retry belongs to the remote client: the transaction is
	// request-driven and cannot be replayed server-side.
	ss.srv.count(func(c *Counters) { c.TxBegun++ })
	return ss.newHandle(nil, ss.srv.Manager().Begin())
}

// handleBeginRO opens a read-only snapshot transaction on whichever
// committed-version store this node reads from. It involves no locks,
// so long scans neither block nor are blocked by writers.
func (ss *session) handleBeginRO() wire.Response {
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
	return wire.Response{OK: true, Tx: id, TxID: ro.ID(), Snap: ro.Seq()}
}

// handleRO serves the transaction verbs of read-only snapshot
// transactions: a read-only BEGIN, and everything on an open snapshot
// handle. Reads go straight to the pinned version chain; WRITE is
// refused with read_only; SUB is meaningless (there is nothing to nest —
// a snapshot cannot abort partially); COMMIT and ABORT are the same
// operation: release the pin.
func (ss *session) handleRO(req *wire.Request) wire.Response {
	ro := ss.ros[req.Tx]
	switch req.Type {
	case wire.TBegin:
		return ss.handleBeginRO()
	case wire.TRead:
		op, err := adt.DecodeOp(req.Op)
		if err != nil {
			return fail(wire.CodeBadRequest, err.Error())
		}
		v, err := ro.Read(req.Obj, op) // refuses a mutating op itself
		if err != nil {
			return fail(wire.CodeBadRequest, err.Error())
		}
		return ss.value(v)
	case wire.TWrite:
		return fail(wire.CodeReadOnly,
			fmt.Sprintf("transaction %d is a read-only snapshot; writes go to a locking transaction", req.Tx))
	case wire.TSub:
		return fail(wire.CodeBadRequest,
			fmt.Sprintf("transaction %d is a read-only snapshot; it cannot open subtransactions", req.Tx))
	default: // TCommit, TAbort
		ro.Close()
		delete(ss.ros, req.Tx)
		return wire.Response{OK: true}
	}
}

func (ss *session) handleSub(req *wire.Request) wire.Response {
	parent, resp := ss.lookup(req)
	if parent == nil {
		return resp
	}
	tx, err := parent.tx.Begin()
	if err != nil {
		// Begin refused to start (parent aborted under us).
		return ss.mapErr(err)
	}
	return ss.newHandle(parent, tx)
}

func (ss *session) handleOp(req *wire.Request) wire.Response {
	h, resp := ss.lookup(req)
	if h == nil {
		return resp
	}
	op, err := adt.DecodeOp(req.Op)
	if err != nil {
		return fail(wire.CodeBadRequest, err.Error())
	}
	if req.Type == wire.TRead && !op.ReadOnly() {
		return fail(wire.CodeBadRequest, fmt.Sprintf("READ with non-read-only op %v", op))
	}
	if req.Type == wire.TWrite && op.ReadOnly() {
		return fail(wire.CodeBadRequest, fmt.Sprintf("WRITE with read-only op %v", op))
	}
	root := h.root()
	ss.arm(root.tx)
	v, err := h.tx.Do(req.Obj, op)
	if ss.expired() {
		// The access was stuck (blocked on a lock past the request
		// deadline). Abort its whole tree before answering, so the
		// session's next request already sees a dead root.
		ss.abortTree(root)
		return fail(wire.CodeTimeout,
			fmt.Sprintf("request exceeded %v; transaction aborted", ss.srv.cfg.RequestTimeout))
	}
	if err != nil {
		return ss.mapErr(err)
	}
	return ss.value(v)
}

// value answers an access with its result, encoded in the session's
// scratch.
func (ss *session) value(v nestedtx.Value) wire.Response {
	raw, err := adt.AppendValue(ss.val[:0], v)
	if err != nil {
		return fail(wire.CodeInternal, err.Error())
	}
	return wire.Response{OK: true, Value: raw}
}

func (ss *session) handleFinish(req *wire.Request) wire.Response {
	h, resp := ss.lookup(req)
	if h == nil {
		return resp
	}
	var err error
	if req.Type == wire.TAbort {
		h.tx.Abort()
	} else {
		err = h.tx.Commit()
	}
	// The handle is finished either way: forget it, and keep it for reuse.
	delete(ss.txs, h.id)
	ss.returned(h, req.Type == wire.TCommit && err == nil)
	if len(ss.free) < maxFreeHandles {
		*h = txHandle{}
		ss.free = append(ss.free, h)
	}
	return ss.mapErr(err)
}

// lookup resolves the handle a request names; without one it returns the
// answer instead, rejecting unknown handles and handles with an open
// subtransaction. A stale handle of a dead tree
// (see abortTree) is dropped and answered with what the client needs to
// unwind: ABORT is the idempotent no-op, anything else reports the abort
// — never "has open subtransaction".
func (ss *session) lookup(req *wire.Request) (*txHandle, wire.Response) {
	h, ok := ss.txs[req.Tx]
	switch {
	case !ok:
		return nil, fail(wire.CodeUnknownTx, fmt.Sprintf("no open transaction handle %d", req.Tx))
	case h.root().dead:
		delete(ss.txs, h.id)
		if req.Type == wire.TAbort {
			return nil, wire.Response{OK: true}
		}
		return nil, fail(wire.CodeAborted, "transaction already aborted")
	case h.child != nil:
		return nil, fail(wire.CodeBadRequest,
			fmt.Sprintf("transaction %d has open subtransaction %d", h.id, h.child.id))
	}
	return h, wire.Response{}
}

// mapErr converts the outcome of an access or of a transaction verb into
// its wire form, counting deadlock victims.
func (ss *session) mapErr(err error) wire.Response {
	switch {
	case err == nil:
		return wire.Response{OK: true}
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

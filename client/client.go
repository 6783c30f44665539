// Package client is the Go client for the nestedtx network transaction
// server (internal/server, cmd/txserver). It mirrors the local API:
// [Client.Run] corresponds to Manager.Run, [Tx.Read]/[Tx.Write]/[Tx.Sub]
// to the local Tx methods, and deadlock victims surface as
// [nestedtx.ErrDeadlock] so RunRetry-style loops work unchanged against
// a remote transaction universe.
//
// A Client owns one connection — one server session — and serialises its
// requests, so a Client is safe for concurrent use but transactions on
// it execute one request at a time; open several Clients for concurrent
// top-level transactions, or use a [Pool].
//
// Connections fail closed: any transport fault (client-side deadline,
// partial read, connection reset) or protocol desynchronisation poisons
// the Client — every later call fails fast with [ErrConnLost] rather
// than reading a stale frame. [Pool] layers reconnection and failover on
// top: poisoned connections are replaced with jittered-backoff redials
// to whichever endpoint leads, and [Pool.RunRetry] treats ErrConnLost
// (and, with replicas, [ErrReadOnly]) as retryable — a lost
// connection's open transaction is aborted server-side and a refused one
// never began, so the body can safely run again on a fresh connection.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"time"

	"nestedtx"
	"nestedtx/internal/adt"
	"nestedtx/internal/clock"
	"nestedtx/internal/obs"
	"nestedtx/internal/slab"
	"nestedtx/internal/wire"
)

// Error is a server-reported failure that has no local errors sentinel
// (bad requests, timeouts, busy/draining servers, internal faults).
type Error struct {
	Code string // a wire.Code* constant
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("client: %s (%s)", e.Msg, e.Code) }

// ErrTimeout is wrapped by errors the server produced by hitting its
// per-request deadline (the transaction was aborted server-side).
var ErrTimeout = errors.New("client: request timed out server-side")

// ErrBusy is wrapped by connection-limit rejections.
var ErrBusy = errors.New("client: server at connection limit")

// ErrConnLost is wrapped by every error a Client returns once its
// connection is poisoned: any transport fault (client-side deadline,
// partial read, reset, or a sequence-number mismatch proving the stream
// is desynchronised) marks the connection permanently dead, and all
// later calls fail fast with ErrConnLost instead of reading a stale
// frame. A lost connection means the server will abort whatever
// transaction was open on it (session teardown or the idle deadline), so
// a workload that failed with ErrConnLost is safe to re-run on a fresh
// connection — [Pool.RunRetry] does exactly that.
var ErrConnLost = errors.New("client: connection lost")

// ErrMalformed is wrapped by protocol-shape violations that are not
// transport faults — e.g. an OK METRICS response missing its payload.
var ErrMalformed = errors.New("client: malformed server response")

// ErrReadOnly is wrapped by rejections from a read replica: the server
// is a replication follower and takes no transactions. Writes (and
// locked reads) must go to the leader — a [Pool] that knows a second
// endpoint takes this sentinel as its cue to probe for one.
var ErrReadOnly = errors.New("client: server is a read-only replica")

// Option configures Dial.
type Option func(*Client)

// WithTimeout bounds every request round-trip (and the dial itself);
// d <= 0 means no client-side deadline. The default is 30s.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// withRTT shares a round-trip-latency histogram across clients; the
// Pool uses it so PoolStats aggregates RTTs over every connection it
// ever dialled.
func withRTT(h *obs.Histogram) Option { return func(c *Client) { c.rtt = h } }

// Client is one session with a transaction server.
type Client struct {
	addr    string // the endpoint dialled; a Pool keeps only the leader's
	timeout time.Duration
	rtt     *obs.Histogram // per-call round-trip latencies

	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	seq  uint64
	lost error    // non-nil once the connection is poisoned; the cause
	op   [64]byte // where access encodes its op; a larger one gets its own buffer
	// txid is where keepTxID copies a BEGIN or SUB reply's txid out of
	// br's buffer; open hands it to the new handle before releasing mu.
	txid     txName
	keepTxID func([]byte) (string, bool) // c.keep, bound once: binding it per call would allocate
	// handles is what openTx cuts every Tx from, one allocation per
	// handleChunk handles.
	handles slab.Slab[Tx]
}

// txName is a transaction's server-assigned name, kept in line when it
// fits: a handle and its name are one allocation.
type txName struct {
	b    [24]byte
	n    uint8
	long string // the name when it does not fit b
}

// String builds the name's string.
func (n *txName) String() string {
	if n.long != "" {
		return n.long
	}
	return string(n.b[:n.n])
}

// keep is the TxIDHook of open's replies: it copies a txid that fits
// into c.txid, and leaves a longer one to the decoder's copy.
func (c *Client) keep(b []byte) (string, bool) {
	if len(b) > len(c.txid.b) {
		return "", false
	}
	c.txid.n = uint8(copy(c.txid.b[:], b))
	return "", true
}

// Dial connects to a transaction server at addr.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{addr: addr, timeout: 30 * time.Second}
	for _, opt := range opts {
		opt(c)
	}
	if c.rtt == nil {
		c.rtt = new(obs.Histogram)
	}
	c.keepTxID = c.keep
	dialTimeout := c.timeout
	if dialTimeout <= 0 {
		dialTimeout = time.Minute
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c.conn = conn
	c.bw = bufio.NewWriterSize(conn, 32<<10)
	c.br = bufio.NewReaderSize(conn, 32<<10)
	return c, nil
}

// Close tears down the session; the server aborts any transaction the
// client left open. A closed Client is poisoned: later calls fail with
// [ErrConnLost].
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lost == nil {
		c.lost = errors.New("client closed")
	}
	return c.conn.Close()
}

// Lost reports whether the connection is poisoned — a transport fault
// (or Close) has made it permanently unusable. [Pool] uses this as the
// health check when recycling connections.
func (c *Client) Lost() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost != nil
}

// poison marks the connection permanently dead and closes it. Once a
// request/response exchange has failed partway, the stream position is
// unknowable — the next frame on the wire could be the stale response
// to the failed request — so the only safe move is to refuse to read it.
// Called with c.mu held.
func (c *Client) poison(cause error) error {
	c.lost = cause
	c.conn.Close()
	return fmt.Errorf("%w: %v", ErrConnLost, cause)
}

// call performs one request/response round-trip into resp and returns
// the transport's or the server's failure (see respErr).
func (c *Client) call(req *wire.Request, resp *wire.Response) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.roundTrip(req, resp)
	// These alias c.br's buffer, which the next call overwrites: a verb
	// that wants one decodes it before releasing c.mu (access, State).
	resp.Value, resp.State = nil, nil
	return err
}

// open is the round trip of BEGIN and SUB: the reply's txid is copied
// from the read buffer (see keep) and returned with it. The caller holds
// c.mu.
func (c *Client) open(req *wire.Request) (wire.Response, txName, error) {
	c.txid.n = 0 // a reply without a txid leaves the name empty
	resp := wire.Response{TxIDHook: c.keepTxID}
	err := c.roundTrip(req, &resp)
	name := c.txid
	name.long = resp.TxID
	return resp, name, err
}

// openTx opens a transaction with req and returns its handle, cut from
// c.handles under c.mu.
func (c *Client) openTx(req *wire.Request) (*Tx, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, name, err := c.open(req)
	if err != nil {
		return nil, err
	}
	t := c.handles.New(handleChunk)
	t.c, t.id, t.name = c, resp.Tx, name
	return t, nil
}

// access is the round trip of READ and WRITE: op is encoded into the
// connection's scratch, and the reply's value decoded straight from the
// read buffer, while c.mu protects both.
func (c *Client) access(typ string, tx uint64, obj string, op nestedtx.Op) (nestedtx.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, err := adt.AppendOp(c.op[:0], op)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	var resp wire.Response
	if err := c.roundTrip(&wire.Request{Type: typ, Tx: tx, Obj: obj, Op: raw}, &resp); err != nil {
		return nil, err
	}
	return adt.DecodeValue(resp.Value)
}

// roundTrip is one exchange on the connection; the caller holds c.mu.
func (c *Client) roundTrip(req *wire.Request, resp *wire.Response) error {
	if c.lost != nil {
		return fmt.Errorf("%w (poisoned by earlier fault: %v)", ErrConnLost, c.lost)
	}
	c.seq++
	req.Seq = c.seq
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	start := time.Now()
	if err := wire.WriteFrame(c.bw, req); err != nil {
		return c.poison(fmt.Errorf("send: %w", err))
	}
	if err := wire.ReadFrameMax(c.br, resp, wire.MaxResponseSize); err != nil {
		return c.poison(fmt.Errorf("receive: %w", err))
	}
	c.rtt.Observe(time.Since(start))
	if resp.Code == wire.CodeBusy {
		// A pre-session refusal frame (it carries no seq); the server
		// closes the connection after sending it.
		return fmt.Errorf("%w: %s", ErrBusy, resp.Err)
	}
	if resp.Seq != req.Seq {
		// The stream is desynchronised (e.g. this is the stale response
		// to a request whose reply we previously timed out waiting for).
		return c.poison(fmt.Errorf("response seq %d for request %d", resp.Seq, req.Seq))
	}
	return respErr(resp)
}

// respErr maps a response to the local error vocabulary: deadlock
// victims to nestedtx.ErrDeadlock, aborted transactions to
// nestedtx.ErrAborted, server-side request deadlines to ErrTimeout, and
// everything else to *Error.
func respErr(resp *wire.Response) error {
	if resp.OK {
		return nil
	}
	switch resp.Code {
	case wire.CodeDeadlock:
		return fmt.Errorf("client: %s: %w", resp.Err, nestedtx.ErrDeadlock)
	case wire.CodeAborted:
		return fmt.Errorf("client: %s: %w", resp.Err, nestedtx.ErrAborted)
	case wire.CodeTimeout:
		return fmt.Errorf("%w: %s", ErrTimeout, resp.Err)
	case wire.CodeReadOnly:
		return fmt.Errorf("%w: %s", ErrReadOnly, resp.Err)
	default:
		return &Error{Code: resp.Code, Msg: resp.Err}
	}
}

// Ping round-trips a no-op frame.
func (c *Client) Ping() error {
	var resp wire.Response
	return c.call(&wire.Request{Type: wire.TPing}, &resp)
}

// State fetches the committed-to-root state of an object: the version
// at the root of the version map, reflecting exactly the top-level
// commits so far — never a live writer's tentative version, and never a
// write that later aborts. Each call is an independent point read; for
// a multi-object consistent cut, use [Client.RunReadOnly].
func (c *Client) State(obj string) (nestedtx.State, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var resp wire.Response
	if err := c.roundTrip(&wire.Request{Type: wire.TState, Obj: obj}, &resp); err != nil {
		return nil, err
	}
	return adt.DecodeState(resp.State)
}

// Metrics fetches the server's status: its own and the lock manager's
// counters, latency and contention metrics, and — on a node that
// replicates — its replication role and positions (lag and leader address
// on a follower, per-follower ack positions on a leader). With dump, the
// response includes the server's recent event-trace ring (empty unless
// the server enabled tracing).
func (c *Client) Metrics(dump bool) (wire.Metrics, error) {
	var resp wire.Response
	if err := c.call(&wire.Request{Type: wire.TMetrics, Dump: dump}, &resp); err != nil {
		return wire.Metrics{}, err
	}
	if resp.Metrics == nil {
		// A malformed (or older) server answered OK without the payload;
		// fail typed rather than panicking on the nil dereference.
		return wire.Metrics{}, fmt.Errorf("%w: OK METRICS response without metrics payload", ErrMalformed)
	}
	return *resp.Metrics, nil
}

// Promote asks a follower server to promote itself to leader: it stops
// streaming, recovers its replicated WAL, re-verifies the inherited
// history against the Theorem-34 checker, and starts accepting writes.
// Fails on a server that is not a follower, and on a follower whose
// inherited history does not verify.
func (c *Client) Promote() error {
	var resp wire.Response
	return c.call(&wire.Request{Type: wire.TPromote}, &resp)
}

// CallStats summarises this client's request round-trip latencies, as
// measured client-side around every completed call (quantiles are
// conservative log-bucket upper bounds, clamped to the observed max).
type CallStats struct {
	Calls              uint64
	P50, P90, P99, Max time.Duration
}

// CallStats reports the client's round-trip latency distribution.
func (c *Client) CallStats() CallStats {
	s := c.rtt.Snapshot()
	return CallStats{
		Calls: s.Count,
		P50:   s.Quantile(50),
		P90:   s.Quantile(90),
		P99:   s.Quantile(99),
		Max:   s.Max,
	}
}

// Tx is an open remote transaction handle (top-level or sub).
type Tx struct {
	c    *Client
	id   uint64
	name txName
}

// handleChunk is the number of handles in one chunk of a Client's slab:
// as many as fill the allocator's 2,048-byte size class. A kept handle
// keeps its chunk, 2 KiB of one Client's handles, and nothing else.
var handleChunk = slab.ChunkBytes / int(reflect.TypeFor[Tx]().Size())

// ID returns the transaction's name in the paper's tree notation, as
// assigned by the server (e.g. "T0.3.1"). The handle keeps the name's
// bytes, so each call builds a new string.
func (t *Tx) ID() string { return t.name.String() }

// Begin opens a top-level transaction. Callers must resolve it with
// [Tx.Commit] or [Tx.Abort]; prefer [Client.Run], which does.
func (c *Client) Begin() (*Tx, error) {
	return c.openTx(&wire.Request{Type: wire.TBegin})
}

// Do performs op on the named object as an access subtransaction of t,
// blocking (server-side) until Moss' locking rule admits it.
func (t *Tx) Do(obj string, op nestedtx.Op) (nestedtx.Value, error) {
	typ := wire.TWrite
	if op.ReadOnly() {
		typ = wire.TRead
	}
	return t.c.access(typ, t.id, obj, op)
}

// Read performs a read-only op; it errors if op is not read-only.
func (t *Tx) Read(obj string, op nestedtx.Op) (nestedtx.Value, error) {
	if !op.ReadOnly() {
		return nil, fmt.Errorf("client: Read with non-read-only op %v", op)
	}
	return t.Do(obj, op)
}

// Write performs a mutating op; it errors if op is read-only.
func (t *Tx) Write(obj string, op nestedtx.Op) (nestedtx.Value, error) {
	if op.ReadOnly() {
		return nil, fmt.Errorf("client: Write with read-only op %v", op)
	}
	return t.Do(obj, op)
}

// Commit commits the transaction.
func (t *Tx) Commit() error {
	var resp wire.Response
	return t.c.call(&wire.Request{Type: wire.TCommit, Tx: t.id}, &resp)
}

// Abort aborts the transaction, rolling back its and its descendants'
// effects.
func (t *Tx) Abort() error {
	var resp wire.Response
	return t.c.call(&wire.Request{Type: wire.TAbort, Tx: t.id}, &resp)
}

// Sub runs fn as a subtransaction of t, exactly like the local Tx.Sub: a
// nil return commits the child (its locks and versions pass to t), an
// error aborts only the child's effects.
func (t *Tx) Sub(fn func(*Tx) error) error {
	child, err := t.c.openTx(&wire.Request{Type: wire.TSub, Tx: t.id})
	if err != nil {
		return err
	}
	if err := fn(child); err != nil {
		if aerr := child.Abort(); aerr != nil && !errors.Is(err, nestedtx.ErrAborted) {
			return errors.Join(err, aerr)
		}
		return err
	}
	return child.Commit()
}

// Run executes fn as a remote top-level transaction: Begin, then Commit
// on nil or Abort on error — the remote mirror of Manager.Run.
func (c *Client) Run(fn func(*Tx) error) error {
	tx, err := c.Begin()
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		if errors.Is(err, ErrConnLost) {
			// The connection is gone: ABORT cannot be delivered, and the
			// server aborts the open tree on session teardown anyway.
			return err
		}
		if aerr := tx.Abort(); aerr != nil && !errors.Is(err, nestedtx.ErrAborted) {
			return errors.Join(err, aerr)
		}
		return err
	}
	return tx.Commit()
}

// RunRetry is Run, retrying up to attempts times while the transaction
// fails as a deadlock victim, with jittered exponential backoff — the
// remote mirror of Manager.RunRetry. attempts values below 1 are
// clamped to 1, so fn always runs at least once.
func (c *Client) RunRetry(attempts int, fn func(*Tx) error) error {
	return clock.Retry(clock.Real{}, attempts, retryBase, nil, isDeadlock, func() error { return c.Run(fn) })
}

// retryBase is the first backoff ceiling between RunRetry attempts, the
// same schedule as the local runtime's: 50µs doubling to a 3.2ms cap.
const retryBase = 50 * time.Microsecond

func isDeadlock(err error) bool { return errors.Is(err, nestedtx.ErrDeadlock) }

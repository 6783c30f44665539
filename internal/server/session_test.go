package server_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/server"
	"nestedtx/internal/wire"
)

// rawSession is a connection driven frame by frame: the client package
// pairs every SUB with its COMMIT/ABORT, and these tests need handles
// left open.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	seq  uint64
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawSession{t: t, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// do sends req and returns the response, success or not.
func (r *rawSession) do(req *wire.Request) *wire.Response {
	r.t.Helper()
	r.seq++
	req.Seq = r.seq
	if err := wire.WriteFrame(r.bw, req); err != nil {
		r.t.Fatalf("write %s: %v", req.Type, err)
	}
	resp, err := wire.ReadResponse(r.br)
	if err != nil {
		r.t.Fatalf("read %s response: %v", req.Type, err)
	}
	return resp
}

// ok sends req and returns the response, which must be a success.
func (r *rawSession) ok(req *wire.Request) *wire.Response {
	r.t.Helper()
	resp := r.do(req)
	if !resp.OK {
		r.t.Fatalf("%s: %s: %s", req.Type, resp.Code, resp.Err)
	}
	return resp
}

// TestOpenTransactionsCostNoGoroutines: a session is one goroutine
// however many transactions it holds open, at whatever depth — requests
// run where they were decoded.
func TestOpenTransactionsCostNoGoroutines(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	for i := 0; i < 64; i++ {
		mgr.MustRegister(fmt.Sprintf("c%d", i), nestedtx.Counter{})
	}
	srv, addr := start(t, mgr, server.Config{})
	add, err := wire.EncodeOp(nestedtx.CtrAdd{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	const sessions, perSession = 4, 16
	for s := 0; s < sessions; s++ {
		r := dialRaw(t, addr)
		for i := 0; i < perSession; i++ {
			obj := fmt.Sprintf("c%d", s*perSession+i)
			h := r.ok(&wire.Request{Type: wire.TBegin}).Tx
			r.ok(&wire.Request{Type: wire.TWrite, Tx: h, Obj: obj, Op: add})
			if i%2 == 0 {
				sub := r.ok(&wire.Request{Type: wire.TSub, Tx: h}).Tx
				r.ok(&wire.Request{Type: wire.TWrite, Tx: sub, Obj: obj, Op: add})
			}
		}
	}
	if c := srv.Counters(); c.TxBegun != sessions*perSession || c.Commits+c.Aborts != 0 {
		t.Fatalf("counters with everything open: %+v", c)
	}
	// The slack covers runtime helpers (a netpoll or timer goroutine
	// starting late); a goroutine per transaction would be 64 over.
	if grew := runtime.NumGoroutine() - before; grew > sessions+3 {
		t.Errorf("64 open transactions over %d sessions added %d goroutines, want at most %d", sessions, grew, sessions+3)
	}
	drainAndVerify(t, srv)
	if c := srv.Counters(); c.Aborts != sessions*perSession {
		t.Errorf("drain aborted %d of %d open transactions", c.Aborts, sessions*perSession)
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// parkWriter opens a transaction on a new client and starts a write to
// "c" that parks behind a lock already held. It returns once the access is
// queued in the lock manager; the write's outcome arrives on the channel.
func parkWriter(t *testing.T, mgr *nestedtx.Manager, addr string) <-chan error {
	t.Helper()
	c := dial(t, addr)
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	waits := mgr.Metrics().Snapshot().QueuedWaiters
	done := make(chan error, 1)
	go func() {
		_, err := tx.Write("c", nestedtx.CtrAdd{Delta: 10})
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); mgr.Metrics().Snapshot().QueuedWaiters == waits; {
		if time.Now().After(deadline) {
			t.Fatal("write never parked on the lock")
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

// TestShutdownUnblocksParkedAccess: Shutdown reaches a session whose
// goroutine is inside an access parked on a lock nobody is going to
// release (an in-process transaction holds it throughout). The session
// context's hook cancels the tree, the access unblocks, the session
// aborts what it holds, and the drain ends well inside its deadline with
// a schedule that verifies.
func TestShutdownUnblocksParkedAccess(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("c", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{RequestTimeout: time.Minute})
	holder := mgr.Begin()
	if _, err := holder.Do("c", nestedtx.CtrAdd{Delta: 1}); err != nil {
		t.Fatal(err)
	}
	parked := parkWriter(t, mgr, addr)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain with a parked access: %v", err)
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Error("write parked behind a held lock succeeded through a shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked write never returned")
	}
	holder.Abort()
	drainAndVerify(t, srv)
	if err := mgr.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if st, _ := mgr.State("c"); st.(nestedtx.Counter).N != 0 {
		t.Errorf("counter = %v after drain, want 0", st)
	}
	if c := srv.Counters(); c.TxBegun != 1 || c.Aborts != 1 {
		t.Errorf("counters after drain: %+v, want 1 begun, 1 aborted", c)
	}
}

// TestReaperUnblocksParkedAccess: the reaper takes the idle session that
// holds the lock (a session inside a request is never idle) while another
// session's access is parked behind it. The holder's tree is aborted on
// its own session goroutine, the parked access is granted, and its
// transaction commits.
func TestReaperUnblocksParkedAccess(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("c", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{IdleTimeout: 100 * time.Millisecond, RequestTimeout: time.Minute})
	abandoned, err := dial(t, addr).Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := abandoned.Write("c", nestedtx.CtrAdd{Delta: 1}); err != nil {
		t.Fatal(err)
	}
	err = dial(t, addr).Run(func(tx *client.Tx) error {
		_, err := tx.Write("c", nestedtx.CtrAdd{Delta: 10}) // parks until the reap
		return err
	})
	if err != nil {
		t.Fatalf("write parked behind a reaped session: %v", err)
	}
	if srv.Counters().ReapedSessions == 0 {
		t.Error("reaper did not count the abandoned session")
	}
	drainAndVerify(t, srv)
	if st, _ := mgr.State("c"); st.(nestedtx.Counter).N != 10 {
		t.Errorf("counter = %v, want 10 (holder's +1 rolled back)", st)
	}
}

// TestShutdownRacesParkedAccess: one teardown hook per session cancels the
// tree the session's access is parked in, and arm re-checks the session's
// context after naming that tree, so a Shutdown that lands anywhere around
// an access — before its request is read, between arm and the wait, or
// while it is parked behind another's lock — still unblocks it. The lock
// is held by another session in even rounds, whose own teardown frees it,
// and in odd rounds by a transaction of the process, which nothing but the
// hook gets the access past. Every round drains well inside its deadline
// with the sessions gone, no waiter left queued, the lock tables clean and
// nothing committed.
func TestShutdownRacesParkedAccess(t *testing.T) {
	for r := 0; r < 1000; r++ {
		mgr := nestedtx.NewManager()
		mgr.MustRegister("c", nestedtx.Counter{})
		srv := server.New(mgr, server.Config{RequestTimeout: time.Minute})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(ln)
		var local *nestedtx.Tx
		if r%2 == 1 {
			local = mgr.Begin()
			if _, err := local.Do("c", nestedtx.CtrAdd{Delta: 1}); err != nil {
				t.Fatal(err)
			}
		} else {
			htx, err := dial(t, ln.Addr().String()).Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := htx.Write("c", nestedtx.CtrAdd{Delta: 1}); err != nil {
				t.Fatal(err)
			}
		}
		waiter := dial(t, ln.Addr().String())
		wtx, err := waiter.Begin()
		if err != nil {
			t.Fatal(err)
		}
		parked := make(chan struct{})
		go func() {
			defer close(parked)
			wtx.Write("c", nestedtx.CtrAdd{Delta: 10}) // fails or, once the holder is torn down, is granted; its tree is aborted either way
		}()
		for i := 0; i < r%64; i++ {
			runtime.Gosched()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = srv.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: drain: %v", r, err)
		}
		<-parked
		waiter.Close()
		if local != nil {
			local.Abort()
		}
		if c := srv.Counters(); c.ActiveSessions != 0 {
			t.Fatalf("round %d: %d sessions left after the drain", r, c.ActiveSessions)
		}
		if n := mgr.Metrics().QueuedWaiters.Load(); n != 0 {
			t.Fatalf("round %d: %d accesses still queued", r, n)
		}
		if err := mgr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if st, _ := mgr.State("c"); st.(nestedtx.Counter).N != 0 {
			t.Fatalf("round %d: counter = %v, want 0", r, st)
		}
	}
}

// TestStaleHandleIsNeverReused: finished handles are reused, a dead
// tree's never are. A tree three deep times out, its root is touched
// (and dropped), and a second tree commits twice on the same session,
// drawing on the handles the first commit finished. The dead tree's stale
// child still answers aborted, never as a handle of the live tree, and
// the live tree's work lands exactly once per commit.
func TestStaleHandleIsNeverReused(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("c", nestedtx.Counter{})
	mgr.MustRegister("d", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{RequestTimeout: 100 * time.Millisecond})
	holder := mgr.Begin()
	if _, err := holder.Do("c", nestedtx.CtrAdd{Delta: 1}); err != nil {
		t.Fatal(err)
	}
	add, err := wire.EncodeOp(nestedtx.CtrAdd{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := dialRaw(t, addr)
	root := r.ok(&wire.Request{Type: wire.TBegin}).Tx
	child := r.ok(&wire.Request{Type: wire.TSub, Tx: root}).Tx
	leaf := r.ok(&wire.Request{Type: wire.TSub, Tx: child}).Tx
	if resp := r.do(&wire.Request{Type: wire.TWrite, Tx: leaf, Obj: "c", Op: add}); resp.Code != wire.CodeTimeout {
		t.Fatalf("write behind the holder: %+v, want %s", resp, wire.CodeTimeout)
	}
	holder.Abort()
	if resp := r.do(&wire.Request{Type: wire.TCommit, Tx: root}); resp.Code != wire.CodeAborted {
		t.Fatalf("commit of the dead root: %+v, want %s", resp, wire.CodeAborted)
	}
	for i := 0; i < 2; i++ {
		top := r.ok(&wire.Request{Type: wire.TBegin}).Tx
		sub := r.ok(&wire.Request{Type: wire.TSub, Tx: top}).Tx
		r.ok(&wire.Request{Type: wire.TWrite, Tx: sub, Obj: "d", Op: add})
		r.ok(&wire.Request{Type: wire.TCommit, Tx: sub})
		r.ok(&wire.Request{Type: wire.TCommit, Tx: top})
	}
	if resp := r.do(&wire.Request{Type: wire.TCommit, Tx: child}); resp.Code != wire.CodeAborted {
		t.Fatalf("commit of the dead tree's stale child: %+v, want %s", resp, wire.CodeAborted)
	}
	if resp := r.do(&wire.Request{Type: wire.TWrite, Tx: leaf, Obj: "d", Op: add}); resp.Code != wire.CodeAborted {
		t.Fatalf("write on the dead tree's stale leaf: %+v, want %s", resp, wire.CodeAborted)
	}
	for obj, want := range map[string]int64{"c": 0, "d": 2} {
		st, err := mgr.State(obj)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.(nestedtx.Counter).N; got != want {
			t.Errorf("%s = %d, want %d", obj, got, want)
		}
	}
	drainAndVerify(t, srv)
}

package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/server"
	"nestedtx/internal/wire"
)

// start serves mgr on a loopback listener and returns the server and its
// dial address. The server is drained at test cleanup (Shutdown is
// idempotent, so tests may also drain explicitly first).
func start(t *testing.T, mgr *nestedtx.Manager, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(mgr, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, client.WithTimeout(20*time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func drainAndVerify(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.Manager().Verify(); err != nil {
		t.Fatalf("Verify after drain: %v", err)
	}
}

// TestRemoteNestedTransaction runs one client through the full surface:
// nested subtransactions with partial rollback, reads, writes, state
// inspection, ping and stats — then drains and machine-checks the
// recorded schedule.
func TestRemoteNestedTransaction(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("acct", nestedtx.Account{Balance: 100})
	mgr.MustRegister("log", nestedtx.NewRegister(int64(0)))
	srv, addr := start(t, mgr, server.Config{})
	c := dial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	err := c.Run(func(tx *client.Tx) error {
		if tx.ID() == "" {
			t.Errorf("empty remote transaction ID")
		}
		// A failing subtransaction rolls back only its own effects.
		suberr := tx.Sub(func(sub *client.Tx) error {
			if _, err := sub.Write("acct", nestedtx.AcctWithdraw{Amount: 70}); err != nil {
				return err
			}
			return errors.New("change of heart")
		})
		if suberr == nil {
			t.Errorf("failing sub reported success")
		}
		// A committing subtransaction passes its effects up.
		if err := tx.Sub(func(sub *client.Tx) error {
			v, err := sub.Write("acct", nestedtx.AcctWithdraw{Amount: 30})
			if err != nil {
				return err
			}
			if r := v.(nestedtx.AcctResult); !r.OK || r.Balance != 70 {
				t.Errorf("withdraw saw rolled-back state: %+v", r)
			}
			return nil
		}); err != nil {
			return err
		}
		v, err := tx.Read("acct", nestedtx.AcctBalance{})
		if err != nil {
			return err
		}
		if v.(int64) != 70 {
			t.Errorf("balance inside tx = %v, want 70", v)
		}
		_, err = tx.Write("log", nestedtx.RegWrite{V: int64(1)})
		return err
	})
	if err != nil {
		t.Fatalf("remote transaction: %v", err)
	}

	st, err := c.State("acct")
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	if st.(nestedtx.Account).Balance != 70 {
		t.Fatalf("committed balance = %+v, want 70", st)
	}
	stats, err := c.Metrics(false)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if stats.Commits != 1 || stats.ActiveSessions != 1 || stats.Requests == 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
	drainAndVerify(t, srv)
}

// TestConcurrentClientsVerify is the acceptance end-to-end: concurrent
// network clients run conflicting nested transactions in recording mode,
// the server drains gracefully, and Manager.Verify accepts the recorded
// schedule (well-formed, replays on M(X), serially correct, Theorem 34).
func TestConcurrentClientsVerify(t *testing.T) {
	const (
		clients = 5
		txPer   = 6
	)
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("hot", nestedtx.Counter{})
	mgr.MustRegister("warm", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{})

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithTimeout(20*time.Second))
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for j := 0; j < txPer; j++ {
				err := c.RunRetry(25, func(tx *client.Tx) error {
					// Conflicting nested work: every transaction updates the
					// hot counter inside a subtransaction and reads the other.
					if err := tx.Sub(func(sub *client.Tx) error {
						_, err := sub.Write("hot", nestedtx.CtrAdd{Delta: 1})
						return err
					}); err != nil {
						return err
					}
					if i%2 == 0 {
						_, err := tx.Write("warm", nestedtx.CtrAdd{Delta: 1})
						return err
					}
					_, err := tx.Read("warm", nestedtx.CtrGet{})
					return err
				})
				if err != nil {
					errc <- fmt.Errorf("client %d tx %d: %w", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st, err := mgr.State("hot")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(nestedtx.Counter).N; got != clients*txPer {
		t.Fatalf("hot counter = %d, want %d", got, clients*txPer)
	}
	if c := srv.Counters(); c.Commits < clients*txPer {
		t.Fatalf("commit counter %d < %d", c.Commits, clients*txPer)
	}
	drainAndVerify(t, srv)
}

// TestDeadlockPropagation forces a two-client deadlock and checks that
// the victim's client observes nestedtx.ErrDeadlock over the wire,
// retries, and commits — while the survivor just blocks and wins.
func TestDeadlockPropagation(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("X", nestedtx.Counter{})
	mgr.MustRegister("Y", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{RequestTimeout: 15 * time.Second})

	aFirst := make(chan struct{})
	bFirst := make(chan struct{})
	var victims int32
	var mu sync.Mutex

	runSide := func(first, second string, mine chan struct{}, other chan struct{}) error {
		c, err := client.Dial(addr, client.WithTimeout(30*time.Second))
		if err != nil {
			return err
		}
		defer c.Close()
		for attempt := 0; attempt < 20; attempt++ {
			tx, err := c.Begin()
			if err != nil {
				return err
			}
			_, err = tx.Write(first, nestedtx.CtrAdd{Delta: 1})
			if err == nil && attempt == 0 {
				close(mine)
				<-other // both sides hold their first lock: the cycle is set
			}
			if err == nil {
				_, err = tx.Write(second, nestedtx.CtrAdd{Delta: 1})
			}
			if err == nil {
				if err = tx.Commit(); err == nil {
					return nil
				}
			}
			if !errors.Is(err, nestedtx.ErrDeadlock) {
				return fmt.Errorf("non-deadlock failure: %w", err)
			}
			mu.Lock()
			victims++
			mu.Unlock()
			if aerr := tx.Abort(); aerr != nil {
				return fmt.Errorf("abort after deadlock: %w", aerr)
			}
			time.Sleep(time.Duration(attempt+1) * time.Millisecond)
		}
		return errors.New("never committed")
	}

	errc := make(chan error, 2)
	go func() { errc <- runSide("X", "Y", aFirst, bFirst) }()
	go func() { errc <- runSide("Y", "X", bFirst, aFirst) }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if victims == 0 {
		t.Fatal("no client ever observed ErrDeadlock")
	}
	if got := srv.Counters().DeadlockVictims; got == 0 {
		t.Fatal("server counted no deadlock victims")
	}
	for _, obj := range []string{"X", "Y"} {
		st, err := mgr.State(obj)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.(nestedtx.Counter).N; got != 2 {
			t.Fatalf("%s = %d, want 2 (one commit per side)", obj, got)
		}
	}
	drainAndVerify(t, srv)
}

// TestIdleReaperAbortsAbandonedTransactions checks that a session that
// goes silent while holding locks is reaped: its transaction aborts and
// the lock becomes available to others.
func TestIdleReaperAbortsAbandonedTransactions(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("c", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{IdleTimeout: 100 * time.Millisecond})

	abandoned := dial(t, addr)
	tx, err := abandoned.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Write("c", nestedtx.CtrAdd{Delta: 5}); err != nil {
		t.Fatal(err)
	}
	// Go silent. The reaper must abort the transaction and free the lock.
	c2 := dial(t, addr)
	err = c2.Run(func(tx *client.Tx) error {
		_, err := tx.Write("c", nestedtx.CtrAdd{Delta: 1})
		return err
	})
	if err != nil {
		t.Fatalf("transaction after reap: %v", err)
	}
	st, err := mgr.State("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(nestedtx.Counter).N; got != 1 {
		t.Fatalf("counter = %d, want 1 (abandoned +5 rolled back)", got)
	}
	if srv.Counters().ReapedSessions == 0 {
		t.Fatal("reaper did not count the abandoned session")
	}
	drainAndVerify(t, srv)
}

// TestClientThatStopsReadingLosesItsLocks: a client that holds a lock and
// then pipelines requests without reading a reply leaves its session
// stuck writing one. The write outlives IdleTimeout, so the session is
// torn down, its transaction aborts, and a second client's write on the
// same object goes through long before its own request deadline. A
// reaper that skipped sessions in the middle of a request never took
// this one: the second write failed with ErrTimeout after 3 s.
func TestClientThatStopsReadingLosesItsLocks(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("c", nestedtx.Counter{})
	mgr.MustRegister("big", nestedtx.NewRegister(strings.Repeat("x", 1<<20)))
	srv, addr := start(t, mgr, server.Config{IdleTimeout: 200 * time.Millisecond, RequestTimeout: 3 * time.Second})

	stuck := dialRaw(t, addr)
	h := stuck.ok(&wire.Request{Type: wire.TBegin}).Tx
	op, err := wire.EncodeOp(nestedtx.CtrAdd{Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	stuck.ok(&wire.Request{Type: wire.TWrite, Tx: h, Obj: "c", Op: op})
	for i := 0; i < 200; i++ {
		if err := wire.WriteFrame(stuck.bw, &wire.Request{Seq: uint64(100 + i), Type: wire.TState, Obj: "big"}); err != nil {
			t.Fatalf("pipelined STATE %d: %v", i, err)
		}
	}

	began := time.Now()
	err = dial(t, addr).Run(func(tx *client.Tx) error {
		_, err := tx.Write("c", nestedtx.CtrAdd{Delta: 1})
		return err
	})
	if err != nil {
		t.Fatalf("write behind a client that stopped reading, after %v: %v", time.Since(began), err)
	}
	t.Logf("write behind a client that stopped reading: %v", time.Since(began))
	if srv.Counters().ReapedSessions == 0 {
		t.Error("the stuck session was not counted as reaped")
	}
	drainAndVerify(t, srv)
	if st, _ := mgr.State("c"); st.(nestedtx.Counter).N != 1 {
		t.Errorf("counter = %v, want 1 (the stuck client's +5 rolled back)", st)
	}
}

// TestConnectionLimitBackpressure checks that connections beyond
// MaxConns are refused with a busy frame.
func TestConnectionLimitBackpressure(t *testing.T) {
	mgr := nestedtx.NewManager()
	srv, addr := start(t, mgr, server.Config{MaxConns: 1})

	c1 := dial(t, addr)
	if err := c1.Ping(); err != nil {
		t.Fatalf("first client: %v", err)
	}
	c2, err := client.Dial(addr, client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("dial should succeed (refusal is a frame): %v", err)
	}
	defer c2.Close()
	if err := c2.Ping(); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("second client ping: got %v, want ErrBusy", err)
	}
	if srv.Counters().RejectedConns != 1 {
		t.Fatalf("rejected = %d, want 1", srv.Counters().RejectedConns)
	}
}

// TestConnectionLimitHoldsUnderBurst: MaxConns is a bound, not a hint. A
// burst of dials arrives faster than session goroutines get scheduled, so
// a session counted only once its goroutine runs lets the whole burst
// past the check; counted on the accept goroutine, every snapshot stays
// within the limit and every dial is accounted for exactly once.
func TestConnectionLimitHoldsUnderBurst(t *testing.T) {
	const maxConns, dialled = 4, 8 * 4
	srv, addr := start(t, nestedtx.NewManager(), server.Config{MaxConns: maxConns})

	var wg sync.WaitGroup
	conns := make(chan net.Conn, dialled)
	for i := 0; i < dialled; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			conns <- conn // held open: an admitted session stays active
		}()
	}
	// Sample until every dial is accounted for (or one failed).
	c := srv.Counters()
	for c.ActiveSessions <= maxConns && c.TotalSessions+c.RejectedConns < dialled && !t.Failed() {
		time.Sleep(100 * time.Microsecond)
		c = srv.Counters()
	}
	wg.Wait()
	close(conns)
	for conn := range conns {
		conn.Close()
	}
	if c.ActiveSessions > maxConns {
		t.Fatalf("ActiveSessions = %d with MaxConns %d: %+v", c.ActiveSessions, maxConns, c)
	}
	if c.TotalSessions != maxConns || c.RejectedConns != dialled-maxConns {
		t.Fatalf("accepted %d, rejected %d of %d dials, want %d and %d",
			c.TotalSessions, c.RejectedConns, dialled, maxConns, dialled-maxConns)
	}
}

// TestRequestTimeoutAbortsTransaction checks the per-request deadline: an
// access blocked past RequestTimeout fails with ErrTimeout and its
// transaction is aborted server-side, releasing nothing to the committed
// state.
func TestRequestTimeoutAbortsTransaction(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("c", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{RequestTimeout: 150 * time.Millisecond})

	holder := dial(t, addr)
	htx, err := holder.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := htx.Write("c", nestedtx.CtrAdd{Delta: 1}); err != nil {
		t.Fatal(err)
	}

	blocked := dial(t, addr)
	btx, err := blocked.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := btx.Write("c", nestedtx.CtrAdd{Delta: 10}); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("blocked write: got %v, want ErrTimeout", err)
	}
	// The timed-out transaction is gone; committing it must fail.
	if err := btx.Commit(); err == nil {
		t.Fatal("commit of timed-out transaction succeeded")
	}
	if err := htx.Commit(); err != nil {
		t.Fatal(err)
	}
	st, _ := mgr.State("c")
	if got := st.(nestedtx.Counter).N; got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
	drainAndVerify(t, srv)
}

// TestShutdownAbortsInFlight checks graceful drain: open transactions
// abort cleanly and the recorded schedule still verifies.
func TestShutdownAbortsInFlight(t *testing.T) {
	mgr := nestedtx.NewManager(nestedtx.WithRecording())
	mgr.MustRegister("c", nestedtx.Counter{})
	srv, addr := start(t, mgr, server.Config{})

	c := dial(t, addr)
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Write("c", nestedtx.CtrAdd{Delta: 9}); err != nil {
		t.Fatal(err)
	}
	drainAndVerify(t, srv)
	st, err := mgr.State("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(nestedtx.Counter).N; got != 0 {
		t.Fatalf("counter = %d after drain, want 0 (in-flight tx aborted)", got)
	}
}

// BenchmarkServerThroughput measures end-to-end requests/sec through the
// wire protocol at varying client counts; each transaction is three
// requests (BEGIN, WRITE, COMMIT) on a client-private counter.
func BenchmarkServerThroughput(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			mgr := nestedtx.NewManager()
			for i := 0; i < clients; i++ {
				mgr.MustRegister(fmt.Sprintf("ctr%d", i), nestedtx.Counter{})
			}
			srv := server.New(mgr, server.Config{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Shutdown(context.Background())

			conns := make([]*client.Client, clients)
			for i := range conns {
				if conns[i], err = client.Dial(ln.Addr().String()); err != nil {
					b.Fatal(err)
				}
				defer conns[i].Close()
			}
			per := b.N/clients + 1
			b.ResetTimer()
			startAt := time.Now()
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					obj := fmt.Sprintf("ctr%d", i)
					for j := 0; j < per; j++ {
						if err := conns[i].Run(func(tx *client.Tx) error {
							_, err := tx.Write(obj, nestedtx.CtrAdd{Delta: 1})
							return err
						}); err != nil {
							b.Error(err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			elapsed := time.Since(startAt)
			txs := float64(per * clients)
			b.ReportMetric(txs*3/elapsed.Seconds(), "req/s")
			b.ReportMetric(txs/elapsed.Seconds(), "tx/s")
		})
	}
}

// TestWriteToUnknownObjectIsBadRequest: WRITE naming an unregistered
// object inside a locking transaction is the client's mistake — the
// server answers bad_request, not aborted, and the transaction stays
// open and commits its other work.
func TestWriteToUnknownObjectIsBadRequest(t *testing.T) {
	for name, opts := range map[string][]nestedtx.Option{"plain": nil, "recording": {nestedtx.WithRecording()}} {
		t.Run(name, func(t *testing.T) {
			mgr := nestedtx.NewManager(opts...)
			mgr.MustRegister("hits", nestedtx.Counter{})
			_, addr := start(t, mgr, server.Config{})
			c := dial(t, addr)
			err := c.Run(func(tx *client.Tx) error {
				_, err := tx.Write("ghost", nestedtx.CtrAdd{Delta: 1})
				var ce *client.Error
				if !errors.As(err, &ce) || ce.Code != wire.CodeBadRequest {
					t.Errorf("WRITE to unknown object: %v, want code %q", err, wire.CodeBadRequest)
				}
				_, err = tx.Write("hits", nestedtx.CtrAdd{Delta: 1})
				return err
			})
			if err != nil {
				t.Fatalf("transaction after a refused WRITE: %v", err)
			}
			if st, err := c.State("hits"); err != nil || st.(nestedtx.Counter).N != 1 {
				t.Fatalf("hits = %+v, %v; want 1", st, err)
			}
		})
	}
}

package server_test

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/adt"
	"nestedtx/internal/server"
	"nestedtx/internal/tree"
	"nestedtx/internal/wire"
)

// TestUnknownObjectNamesStayCorrectAndBounded: a session names an object
// by the string the manager registered, and a name nobody registered
// falls back to a copy. Every verb that names one answers as it always
// has, the transaction stays usable, and 100,000 distinct unknown names
// on one session leave no server table larger.
func TestUnknownObjectNamesStayCorrectAndBounded(t *testing.T) {
	mgr := nestedtx.NewManager()
	mgr.MustRegister("hits", nestedtx.Counter{})
	_, addr := start(t, mgr, server.Config{})
	r := dialRaw(t, addr)
	get, _ := wire.EncodeOp(nestedtx.CtrGet{})
	add, _ := wire.EncodeOp(nestedtx.CtrAdd{Delta: 1})

	tx := r.ok(&wire.Request{Type: wire.TBegin}).Tx
	ro := r.ok(&wire.Request{Type: wire.TBegin, ReadOnly: true}).Tx
	for _, c := range []struct {
		req  wire.Request
		code string
		err  string
	}{
		{wire.Request{Type: wire.TWrite, Tx: tx, Obj: "ghost", Op: add},
			wire.CodeBadRequest, `nestedtx: access T0.0.0 on ghost: lockmgr: object not registered: "ghost"`},
		{wire.Request{Type: wire.TRead, Tx: tx, Obj: "ghost", Op: get},
			wire.CodeBadRequest, `nestedtx: access T0.0.1 on ghost: lockmgr: object not registered: "ghost"`},
		{wire.Request{Type: wire.TRead, Tx: ro, Obj: "ghost", Op: get},
			wire.CodeBadRequest, `nestedtx: S0: snap: object "ghost" has no version at snapshot 0`},
		{wire.Request{Type: wire.TState, Obj: "ghost"},
			wire.CodeBadRequest, `snap: object "ghost" not registered`},
	} {
		resp := r.do(&c.req)
		if resp.OK || resp.Code != c.code || resp.Err != c.err {
			t.Errorf("%s of an unknown object: ok=%v %s %q, want %s %q", c.req.Type, resp.OK, resp.Code, resp.Err, c.code, c.err)
		}
	}
	r.ok(&wire.Request{Type: wire.TWrite, Tx: tx, Obj: "hits", Op: add})

	inUse := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	verbs := []wire.Request{{Type: wire.TRead, Tx: tx, Op: get}, {Type: wire.TRead, Tx: ro, Op: get}, {Type: wire.TState}}
	before := inUse()
	for i := 0; i < 100_000; i++ {
		req := verbs[i%len(verbs)]
		req.Obj = fmt.Sprintf("ghost-%06d", i)
		if resp := r.do(&req); resp.OK || resp.Code != wire.CodeBadRequest {
			t.Fatalf("%s of unknown %s: ok=%v %s", req.Type, req.Obj, resp.OK, resp.Code)
		}
	}
	if grown := inUse() - before; grown > 256<<10 {
		t.Errorf("heap in use grew by %d KiB across 100,000 unknown names, want at most 256", grown>>10)
	}

	r.ok(&wire.Request{Type: wire.TWrite, Tx: tx, Obj: "hits", Op: add})
	r.ok(&wire.Request{Type: wire.TCommit, Tx: tx})
	r.ok(&wire.Request{Type: wire.TCommit, Tx: ro})
	if st, err := mgr.State("hits"); err != nil || st.(nestedtx.Counter).N != 2 {
		t.Fatalf("hits = %+v, %v; want 2 from the transaction that met unknown names", st, err)
	}
}

// TestRegisteredNamesResolve: a name longer than the runtime's 32-byte
// conversion buffer resolves without allocating, and a name spelled with
// a JSON escape resolves to the object it spells.
func TestRegisteredNamesResolve(t *testing.T) {
	long := "account-" + strings.Repeat("0123456789", 4) // 48 bytes
	mgr := nestedtx.NewManager()
	mgr.MustRegister("ctr-a", nestedtx.Counter{N: 5})
	mgr.MustRegister(long, nestedtx.Counter{N: 9})

	b := []byte(long)
	var name string
	var ok bool
	if n := testing.AllocsPerRun(100, func() { name, ok = mgr.ObjectName(b) }); n != 0 || !ok || name != long {
		t.Errorf("ObjectName of a %d-byte name: %q, %v in %.0f allocations, want it in 0", len(b), name, ok, n)
	}
	if name, ok := mgr.ObjectName([]byte("ghost")); ok || name != "" {
		t.Errorf("ObjectName of an unregistered name: %q, %v", name, ok)
	}

	_, addr := start(t, mgr, server.Config{})
	r := dialRaw(t, addr)
	tx := r.ok(&wire.Request{Type: wire.TBegin}).Tx
	get, _ := wire.EncodeOp(nestedtx.CtrGet{})
	read := func(obj string) string {
		t.Helper()
		r.seq++
		frame := fmt.Sprintf(`{"seq":%d,"type":"READ","tx":%d,"obj":%s,"op":%s}`, r.seq, tx, obj, get)
		fmt.Fprintf(r.bw, "%d\n%s\n", len(frame), frame)
		if err := r.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadResponse(r.br)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("READ %s: %s: %s", obj, resp.Code, resp.Err)
		}
		v, err := adt.DecodeValue(resp.Value)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(v)
	}
	for obj, want := range map[string]string{`"ctr-a"`: "5", `"ctr\u002da"`: "5", `"` + long + `"`: "9"} {
		if got := read(obj); got != want {
			t.Errorf("READ %s = %s, want %s", obj, got, want)
		}
	}
	r.ok(&wire.Request{Type: wire.TCommit, Tx: tx})

	// Through the decoder alone, as a session reads: the long name costs
	// nothing, and the escaped one only its unescaping.
	frames := func(obj string) *bufio.Reader {
		var buf bytes.Buffer
		for i := 0; i < 101; i++ {
			frame := fmt.Sprintf(`{"seq":1,"type":"READ","tx":1,"obj":%s,"op":%s}`, obj, get)
			fmt.Fprintf(&buf, "%d\n%s\n", len(frame), frame)
		}
		return bufio.NewReader(&buf)
	}
	req := wire.Request{ObjHook: mgr.ObjectName}
	for obj, c := range map[string]struct {
		name   string
		allocs float64
	}{`"` + long + `"`: {long, 0}, `"ctr\u002da"`: {"ctr-a", 1}} {
		br := frames(obj)
		n := testing.AllocsPerRun(100, func() {
			if err := wire.ReadFrame(br, &req); err != nil {
				t.Fatal(err)
			}
		})
		if req.Obj != c.name || n > c.allocs {
			t.Errorf("decoding obj %s: %q in %.0f allocations, want %q in %.0f", obj, req.Obj, n, c.name, c.allocs)
		}
	}
}

// TestLongTxIDRoundTrips: a txid longer than the client handle's inline
// array spills to a string of its own and reads back whole.
func TestLongTxIDRoundTrips(t *testing.T) {
	mgr := nestedtx.NewManager()
	_, addr := start(t, mgr, server.Config{})
	c := dial(t, addr)
	longest := 0
	var nest func(tx *client.Tx, depth int) error
	nest = func(tx *client.Tx, depth int) error {
		id := tx.ID()
		longest = max(longest, len(id))
		if depth == 0 {
			return nil
		}
		return tx.Sub(func(sub *client.Tx) error {
			if got := sub.ID(); string(tree.TID(got).Parent()) != id {
				return fmt.Errorf("child %q of %q", got, id)
			}
			return nest(sub, depth-1)
		})
	}
	if err := c.Run(func(tx *client.Tx) error { return nest(tx, 14) }); err != nil {
		t.Fatal(err)
	}
	if longest <= 24 {
		t.Fatalf("longest txid %d bytes, want one past the 24-byte inline array", longest)
	}
}

// TestConcurrentCallsKeepTheirNames: eight goroutines share one client,
// so BEGIN and SUB replies from all of them pass through the one read
// buffer and the one txid scratch. Each handle must keep its own name:
// well formed, never another's, and its parent's name plus one step.
func TestConcurrentCallsKeepTheirNames(t *testing.T) {
	mgr := nestedtx.NewManager()
	_, addr := start(t, mgr, server.Config{})
	c := dial(t, addr)
	const workers, runs = 8, 500
	var mu sync.Mutex
	seen := make(map[string]bool, 2*workers*runs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				var ids [2]string
				err := c.Run(func(tx *client.Tx) error {
					ids[0] = tx.ID()
					return tx.Sub(func(sub *client.Tx) error {
						ids[1] = sub.ID()
						return nil
					})
				})
				if err != nil {
					t.Error(err)
					return
				}
				top, sub := tree.TID(ids[0]), tree.TID(ids[1])
				if !top.Valid() || top.Level() != 1 || !sub.Valid() || sub.Parent() != top {
					t.Errorf("transaction %q with subtransaction %q", top, sub)
					return
				}
				mu.Lock()
				dup := seen[ids[0]] || seen[ids[1]]
				seen[ids[0]], seen[ids[1]] = true, true
				mu.Unlock()
				if dup {
					t.Errorf("name %q or %q handed out twice", top, sub)
					return
				}
			}
		}()
	}
	wg.Wait()
}

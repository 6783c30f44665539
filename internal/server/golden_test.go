package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nestedtx"
	"nestedtx/client"
	"nestedtx/internal/server"
	"nestedtx/internal/wal"
)

// rawCall sends one request frame on a fresh connection and returns the
// response payload as the server wrote it — not as this build's client
// would decode it, which is the point.
func rawCall(t *testing.T, addr, req string) map[string]any {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%d\n%s\n", len(req), req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	header, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(header))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatal(err)
	}
	var resp map[string]any
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatalf("%s reply is not JSON: %v\n%s", req, err, payload)
	}
	if resp["ok"] != true {
		t.Fatalf("%s refused: %s", req, payload)
	}
	return resp
}

// keyPaths lists every member path of a decoded JSON value ("a.b",
// arrays as "a[]"), each once.
func keyPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, member := range x {
			path := strings.TrimPrefix(prefix+"."+k, ".")
			out[path] = true
			keyPaths(path, member, out)
		}
	case []any:
		for _, elem := range x {
			keyPaths(prefix+"[]", elem, out)
		}
	}
}

// TestStatsMetricsKeysMatchParentCommit pins the wire contract of the
// status verb while its Go declarations move: a durable, traced leader
// with one follower is driven through commits, one lock wait, a snapshot
// read and a checkpoint, and the sorted JSON key paths of its METRICS-dump
// payload must equal testdata/stats-metrics-keys.txt. The list was
// captured from the commit before the payload structs moved into
// internal/obs; a metric added since is a line added there by hand. The
// server and lock counters, once a STATS payload of their own, keep their
// names under "metrics.", and "metrics.repl_status" holds what the
// REPL_STATUS verb answered in this setup. The embedded blocks share one
// JSON object, so a name two of them declare would silently drop both
// keys: this test is what catches it. The one permitted difference is
// additive: each histogram's "buckets" member.
func TestStatsMetricsKeysMatchParentCommit(t *testing.T) {
	fs := wal.NewMemFS()
	mgr, _, err := nestedtx.OpenDurable("leader", nestedtx.DurableOptions{FS: fs}, nestedtx.WithTracing(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	mgr.MustRegister("a", nestedtx.Counter{})
	_, addr := start(t, mgr, server.Config{})
	_, f, _ := startFollower(t, fs, "replica", addr)

	c := dial(t, addr)
	for i := 0; i < 20; i++ {
		if err := c.Run(func(tx *client.Tx) error {
			_, err := tx.Write("a", nestedtx.CtrAdd{Delta: 1})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One lock wait, so the trace has entries that name an object: a
	// second client blocks behind an open writer until it commits.
	holder, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Write("a", nestedtx.CtrAdd{Delta: 1}); err != nil {
		t.Fatal(err)
	}
	blocked, second := make(chan error, 1), dial(t, addr)
	go func() {
		blocked <- second.Run(func(tx *client.Tx) error {
			_, err := tx.Write("a", nestedtx.CtrAdd{Delta: 1})
			return err
		})
	}()
	waitUntil(t, "second writer queued", func() bool { return mgr.Metrics().Snapshot().QueuedWaiters == 1 })
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if err := c.RunReadOnly(func(s *client.Snapshot) error {
		_, err := s.Read("a", nestedtx.CtrGet{})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Acks counted, a ship round trip observed and the lag back at zero:
	// the replication block is in the payload, minus its omitted-when-zero
	// lag pair.
	waitUntil(t, "follower caught up and acked", func() bool {
		s := mgr.Metrics().Snapshot()
		return caughtUp(f, mgr) && s.ShipLatency.Count > 0 && s.ReplLagRecords == 0
	})

	paths := make(map[string]bool)
	keyPaths("metrics", rawCall(t, addr, `{"seq":1,"type":"METRICS","dump":true}`)["metrics"], paths)
	var got []string
	for p := range paths {
		if !strings.HasSuffix(p, ".buckets") {
			got = append(got, p)
		}
	}
	slices.Sort(got)

	raw, err := os.ReadFile("testdata/stats-metrics-keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	for _, p := range want {
		if !paths[p] {
			t.Errorf("key %s of the parent commit's payload is gone", p)
		}
	}
	for _, p := range got {
		if !slices.Contains(want, p) {
			t.Errorf("key %s is not in the parent commit's payload", p)
		}
	}
}

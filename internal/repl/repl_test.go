package repl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/checker"
	"nestedtx/internal/core"
	"nestedtx/internal/obs"
	"nestedtx/internal/snap"
	"nestedtx/internal/wal"
	"nestedtx/internal/wire"
)

// leaderLog is a test-side stand-in for a committing Manager: it
// appends register/commit records to a real log, maintaining shadow
// states the way commitTop does.
type leaderLog struct {
	tb     testing.TB
	lg     *wal.Log
	states map[string]adt.State
	n      int
}

func newLeaderLog(tb testing.TB, fs wal.FS, dir string, opts wal.Options) *leaderLog {
	tb.Helper()
	opts.FS = fs
	lg, rec, err := wal.Open(dir, opts)
	if err != nil {
		tb.Fatalf("wal.Open(%s): %v", dir, err)
	}
	states := rec.States()
	if states == nil {
		states = make(map[string]adt.State)
	}
	return &leaderLog{tb: tb, lg: lg, states: states}
}

func (l *leaderLog) register(name string, init adt.State) {
	l.tb.Helper()
	if err := l.lg.AppendApply(wal.Record{Register: &wal.RegisterRecord{Name: name, Initial: init}}, nil); err != nil {
		l.tb.Fatalf("append register %s: %v", name, err)
	}
	l.states[name] = init
}

func (l *leaderLog) commit(obj string, op adt.Op) {
	l.tb.Helper()
	next, v := op.Apply(l.states[obj])
	l.n++
	rec := wal.Record{Commit: &wal.CommitRecord{
		TID: "T0." + string(rune('0'+l.n%10)), Value: int64(1),
		Effects: []wal.Effect{{Obj: obj, Op: op, Val: v}},
	}}
	if err := l.lg.AppendApply(rec, nil); err != nil {
		l.tb.Fatalf("append commit on %s: %v", obj, err)
	}
	l.states[obj] = next
}

// capture is a checkpoint capture of the shadow states.
func (l *leaderLog) capture(next uint64) wal.Cut {
	return wal.Cut{LSN: next, States: func(yield func(string, adt.State) bool) {
		for _, x := range slices.Sorted(maps.Keys(l.states)) {
			if !yield(x, l.states[x]) {
				return
			}
		}
	}}
}

// serveShipper runs a minimal leader accept loop: each connection's
// first request must be a REPL_HELLO, which hands the connection to
// sh.Serve — the same wiring internal/server does.
func serveShipper(tb testing.TB, sh *Shipper) (addr string, stop func()) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReaderSize(c, 64<<10)
				bw := bufio.NewWriterSize(c, 64<<10)
				req, err := wire.ReadRequest(br)
				if err != nil || req.Type != wire.TReplHello {
					return
				}
				sh.Serve(done, c.RemoteAddr().String(), req, br, bw)
			}(conn)
		}
	}()
	var once sync.Once
	return ln.Addr().String(), func() {
		once.Do(func() {
			close(done)
			ln.Close()
		})
	}
}

func waitFor(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s", what)
}

// wantStates asserts the follower's committed head of every object in
// want is want's.
func wantStates(t *testing.T, f *Follower, want map[string]adt.State) {
	t.Helper()
	for x, st := range want {
		if got, err := f.State(x); err != nil || !reflect.DeepEqual(got, st) {
			t.Fatalf("follower state of %q = %v, %v; leader has %v", x, got, err, st)
		}
	}
}

func TestShipAndCatchUp(t *testing.T) {
	fs := wal.NewMemFS()
	leader := newLeaderLog(t, fs, "leader", wal.Options{})
	defer leader.lg.Close()
	leader.register("ctr", adt.Counter{})
	for i := 0; i < 20; i++ {
		leader.commit("ctr", adt.CtrAdd{Delta: 1})
	}

	met := &obs.Metrics{}
	sh := NewShipper(leader.lg, met)
	addr, stop := serveShipper(t, sh)
	defer stop()

	f, err := OpenFollower("follower", wal.Options{FS: fs})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close()
	go f.Run(addr)

	// Catch-up: the backlog written before the follower existed arrives.
	waitFor(t, "initial catch-up", func() bool {
		return f.Status().NextLSN == leader.lg.DurableLSN()
	})
	wantStates(t, f, leader.states)

	// Steady state: live commits flow through.
	for i := 0; i < 10; i++ {
		leader.commit("ctr", adt.CtrAdd{Delta: 2})
	}
	waitFor(t, "steady-state ship", func() bool {
		return f.Status().NextLSN == leader.lg.DurableLSN()
	})
	if st, err := f.State("ctr"); err != nil || st != (adt.Counter{N: 40}) {
		t.Fatalf("follower ctr = %v (%v), want Counter{N: 40}", st, err)
	}

	// The leader saw acks covering everything, and its lag gauge is flat.
	waitFor(t, "leader ack bookkeeping", func() bool {
		rs := sh.Status()
		return len(rs.Followers) == 1 && rs.Followers[0].AckLSN == leader.lg.DurableLSN()
	})
	snap := met.Snapshot()
	if snap.ReplBatches == 0 || snap.ReplRecordsShipped < 31 || snap.ReplAcks == 0 {
		t.Fatalf("leader repl counters not advancing: %+v", snap)
	}
	if snap.ReplLagRecords != 0 {
		t.Fatalf("caught-up lag gauge = %d, want 0", snap.ReplLagRecords)
	}

	// The follower's WAL is byte-verifiable on its own.
	rec, err := wal.Inspect("follower", fs)
	if err != nil {
		t.Fatalf("inspect follower: %v", err)
	}
	sched, st, err := rec.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.Certify(sched, st, core.ReadWrite, rec.States()); err != nil {
		t.Fatalf("follower history does not certify: %v", err)
	}
}

// TestStatusWaitsForTheStore holds the follower's first fsync, so a batch
// sits between its append — the log's NextLSN has moved past it — and its
// replay into the store. Status must not report what State cannot show
// yet: its NextLSN stays where the store is until the fsync is let go.
func TestStatusWaitsForTheStore(t *testing.T) {
	fs := wal.NewMemFS()
	leader := newLeaderLog(t, fs, "leader", wal.Options{})
	defer leader.lg.Close()
	leader.register("ctr", adt.Counter{})
	for i := 0; i < 5; i++ {
		leader.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	addr, stop := serveShipper(t, NewShipper(leader.lg, &obs.Metrics{}))
	defer stop()

	device := wal.NewFaultFS(fs)
	f, err := OpenFollower("follower", wal.Options{FS: device})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var hold, let sync.Once
	device.SetSyncHook(func() { hold.Do(func() { close(held); <-release }) })
	defer let.Do(func() { close(release) }) // before Close, whose flush syncs
	go f.Run(addr)
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the follower never synced a batch")
	}
	if staged := f.log.Stats().NextLSN; staged == 0 {
		t.Fatal("the fsync is held but the log's NextLSN has not moved")
	}
	if st := f.Status(); st.NextLSN != 0 {
		t.Fatalf("Status reports NextLSN %d while the store has replayed nothing", st.NextLSN)
	}
	if st, err := f.State("ctr"); err == nil {
		t.Fatalf("State(ctr) = %v before its register record was replayed", st)
	}
	let.Do(func() { close(release) })
	waitFor(t, "catch-up", func() bool {
		return f.Status().NextLSN == leader.lg.DurableLSN()
	})
	wantStates(t, f, leader.states)
}

func TestSnapshotCatchUp(t *testing.T) {
	fs := wal.NewMemFS()
	leader := newLeaderLog(t, fs, "leader", wal.Options{SegmentBytes: 1 << 10})
	defer leader.lg.Close()
	leader.register("ctr", adt.Counter{})
	leader.register("reg", adt.NewRegister(int64(0)))
	for i := 0; i < 15; i++ {
		leader.commit("ctr", adt.CtrAdd{Delta: 1})
		leader.commit("reg", adt.RegWrite{V: int64(i)})
	}
	// Checkpoint truncates the log: the segment holding LSN 0 is wholly
	// below the low-water mark, so a fresh follower can only catch up via
	// snapshot.
	if err := leader.lg.Checkpoint(leader.capture); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	leader.commit("ctr", adt.CtrAdd{Delta: 100})

	sh := NewShipper(leader.lg, nil)
	addr, stop := serveShipper(t, sh)
	defer stop()

	f, err := OpenFollower("follower", wal.Options{FS: fs})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close()
	go f.Run(addr)

	waitFor(t, "snapshot catch-up", func() bool {
		return f.Status().NextLSN == leader.lg.DurableLSN()
	})
	wantStates(t, f, leader.states)
	st := f.Status()
	if st.CheckpointLSN != leader.lg.Stats().CheckpointLSN {
		t.Fatalf("follower checkpoint %d, want the installed snapshot at %d",
			st.CheckpointLSN, leader.lg.Stats().CheckpointLSN)
	}
}

func TestFollowerRestartResumes(t *testing.T) {
	fs := wal.NewMemFS()
	leader := newLeaderLog(t, fs, "leader", wal.Options{})
	defer leader.lg.Close()
	leader.register("ctr", adt.Counter{})
	for i := 0; i < 5; i++ {
		leader.commit("ctr", adt.CtrAdd{Delta: 1})
	}

	sh := NewShipper(leader.lg, nil)
	addr, stop := serveShipper(t, sh)
	defer stop()

	f, err := OpenFollower("follower", wal.Options{FS: fs})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	go f.Run(addr)
	waitFor(t, "first catch-up", func() bool {
		return f.Status().NextLSN == leader.lg.DurableLSN()
	})
	if err := f.Close(); err != nil {
		t.Fatalf("close follower: %v", err)
	}

	// Leader keeps committing while the follower is down.
	for i := 0; i < 7; i++ {
		leader.commit("ctr", adt.CtrAdd{Delta: 3})
	}

	// A reopened follower recovers its prefix and fetches only the rest.
	f2, err := OpenFollower("follower", wal.Options{FS: fs})
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	defer f2.Close()
	if got, want := f2.Status().NextLSN, uint64(6); got != want {
		t.Fatalf("recovered follower NextLSN %d, want %d", got, want)
	}
	go f2.Run(addr)
	waitFor(t, "resume catch-up", func() bool {
		return f2.Status().NextLSN == leader.lg.DurableLSN()
	})
	wantStates(t, f2, leader.states)
}

func TestHelloRefusesAheadFollower(t *testing.T) {
	fs := wal.NewMemFS()
	leader := newLeaderLog(t, fs, "leader", wal.Options{})
	defer leader.lg.Close()
	leader.register("ctr", adt.Counter{})

	sh := NewShipper(leader.lg, nil)
	addr, stop := serveShipper(t, sh)
	defer stop()

	// A follower whose log is longer than the leader's is not a replica
	// of this history; streaming must be refused, not "fixed".
	ahead := newLeaderLog(t, fs, "ahead", wal.Options{})
	ahead.register("ctr", adt.Counter{})
	for i := 0; i < 9; i++ {
		ahead.commit("ctr", adt.CtrAdd{Delta: 1})
	}
	ahead.lg.Close()

	f, err := OpenFollower("ahead", wal.Options{FS: fs})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close()
	err = f.stream(addr)
	if err == nil || !strings.Contains(err.Error(), "ahead") {
		t.Fatalf("stream from ahead follower: err = %v, want split-brain refusal", err)
	}
}

// TestFollowerStopsWhenItsOwnLogFails: a crash under the follower's own
// directory latches its log. Reconnecting cannot heal that — every
// reconnect would only make the leader re-tail its segments — so Run
// ends with the log's error instead of redialling forever.
func TestFollowerStopsWhenItsOwnLogFails(t *testing.T) {
	fs := wal.NewMemFS()
	leader := newLeaderLog(t, fs, "leader", wal.Options{})
	defer leader.lg.Close()
	leader.register("ctr", adt.Counter{})
	addr, stop := serveShipper(t, NewShipper(leader.lg, &obs.Metrics{}))
	defer stop()

	device := wal.NewFaultFS(fs)
	f, err := OpenFollower("follower", wal.Options{FS: device})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close()
	done := make(chan error, 1)
	go func() { done <- f.Run(addr) }()
	waitFor(t, "catch-up", func() bool {
		return f.Status().NextLSN == leader.lg.DurableLSN()
	})

	device.CrashAfter(0)
	leader.commit("ctr", adt.CtrAdd{Delta: 1})
	select {
	case err := <-done:
		if !errors.Is(err, wal.ErrInjected) {
			t.Fatalf("Run = %v, want the log's %v", err, wal.ErrInjected)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still streaming 5 s after the follower's own log failed")
	}
}

// batchOf frames recs, numbered from first, as one shipped batch.
func batchOf(t *testing.T, first uint64, recs ...wal.Record) *wire.Repl {
	t.Helper()
	var frames []byte
	for i := range recs {
		recs[i].LSN = first + uint64(i)
		var err error
		if frames, err = wal.EncodeFrame(frames, recs[i]); err != nil {
			t.Fatalf("EncodeFrame %d: %v", i, err)
		}
	}
	return &wire.Repl{Kind: wire.ReplBatch, FirstLSN: first, Count: len(recs), Frames: frames}
}

func commitOf(effects ...wal.Effect) wal.Record {
	return wal.Record{Commit: &wal.CommitRecord{TID: "T0.1", Value: int64(1), Effects: effects}}
}

// replayFollower opens a follower holding one registered counter.
func replayFollower(t *testing.T) *Follower {
	t.Helper()
	f, err := OpenFollower("follower", wal.Options{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	reg := wal.Record{Register: &wal.RegisterRecord{Name: "ctr", Initial: adt.Counter{}}}
	if err := f.applyBatch(batchOf(t, 0, reg)); err != nil {
		t.Fatalf("register: %v", err)
	}
	return f
}

// TestReplayOffTheStore: the follower keeps no states of its own — redo
// reads the store's head, threads a record's own earlier writes through
// its later effects, verifies every logged value (read-only ones too)
// and publishes only what the record wrote.
func TestReplayOffTheStore(t *testing.T) {
	f := replayFollower(t)
	// Two writes to one object: the second applies to the first's result,
	// and the read behind them sees both.
	if err := f.applyBatch(batchOf(t, 1, commitOf(
		wal.Effect{Obj: "ctr", Op: adt.CtrAdd{Delta: 1}, Val: int64(1)},
		wal.Effect{Obj: "ctr", Op: adt.CtrAdd{Delta: 2}, Val: int64(3)},
		wal.Effect{Obj: "ctr", Op: adt.CtrGet{}, Val: int64(3)},
	))); err != nil {
		t.Fatalf("two effects on one object: %v", err)
	}
	// A read-only record is verified against the head and publishes nothing.
	if err := f.applyBatch(batchOf(t, 2, commitOf(
		wal.Effect{Obj: "ctr", Op: adt.CtrGet{}, Val: int64(3)},
	))); err != nil {
		t.Fatalf("read-only record: %v", err)
	}
	if st, err := f.State("ctr"); err != nil || st.(adt.Counter).N != 3 {
		t.Fatalf("State(ctr) = %v, %v; want 3", st, err)
	}
	if seq, pubs := f.Store().Seq(), f.Metrics().SnapPublishes.Load(); seq != 1 || pubs != 1 {
		t.Fatalf("store seq %d, %d publications; want one publication for the one writing record", seq, pubs)
	}
}

// TestDivergenceIsFatal: a record that does not replay on the store's
// committed states is rejected with ErrDiverged.
func TestDivergenceIsFatal(t *testing.T) {
	for name, effects := range map[string][]wal.Effect{
		"logged value contradicts the head": {
			{Obj: "ctr", Op: adt.CtrAdd{Delta: 1}, Val: int64(999)}},
		"second effect logged against the head, not the first's result": {
			{Obj: "ctr", Op: adt.CtrAdd{Delta: 1}, Val: int64(1)},
			{Obj: "ctr", Op: adt.CtrAdd{Delta: 1}, Val: int64(1)}},
		"read-only effect logged a value the head does not yield": {
			{Obj: "ctr", Op: adt.CtrGet{}, Val: int64(5)}},
		"unknown object": {
			{Obj: "nope", Op: adt.CtrAdd{Delta: 1}, Val: int64(1)}},
	} {
		t.Run(name, func(t *testing.T) {
			f := replayFollower(t)
			if err := f.applyBatch(batchOf(t, 1, commitOf(effects...))); !errors.Is(err, ErrDiverged) {
				t.Fatalf("applyBatch: err = %v, want ErrDiverged", err)
			}
		})
	}
}

// TestBatchOffTheLogRedials: a stream starts at the follower's NextLSN
// and its batches are contiguous, so a batch that starts anywhere else —
// overlapping a record the follower holds, or past a gap — is refused as
// the stream's fault: the follower's status, its log and its directory
// are as they were, and the batch that does continue the log applies.
func TestBatchOffTheLogRedials(t *testing.T) {
	add := func() wal.Record {
		return commitOf(wal.Effect{Obj: "ctr", Op: adt.CtrAdd{Delta: 1}, Val: int64(1)})
	}
	reg := func() wal.Record {
		return wal.Record{Register: &wal.RegisterRecord{Name: "ctr", Initial: adt.Counter{}}}
	}
	for name, batch := range map[string]func() *wire.Repl{
		"an overlap": func() *wire.Repl { return batchOf(t, 0, reg(), add()) },
		"a gap":      func() *wire.Repl { return batchOf(t, 2, add()) },
	} {
		t.Run(name, func(t *testing.T) {
			fs := wal.NewMemFS()
			f, err := OpenFollower("follower", wal.Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := f.applyBatch(batchOf(t, 0, reg())); err != nil {
				t.Fatal(err)
			}
			status, stats, dir := f.Status(), f.log.Stats(), dirBytes(t, fs, "follower")
			if err := f.applyBatch(batch()); err == nil || errors.Is(err, errOwnLog) || errors.Is(err, ErrDiverged) {
				t.Fatalf("applyBatch = %v, want a stream error", err)
			}
			if got := f.Status(); !reflect.DeepEqual(got, status) {
				t.Fatalf("status moved to %+v from %+v", got, status)
			}
			if got := f.log.Stats(); got != stats {
				t.Fatalf("log moved to %+v from %+v", got, stats)
			}
			if got := dirBytes(t, fs, "follower"); !reflect.DeepEqual(got, dir) {
				t.Fatalf("directory changed: %v, was %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(dir)))
			}
			if err := f.applyBatch(batchOf(t, 1, add())); err != nil {
				t.Fatalf("batch continuing the log: %v", err)
			}
			if st, err := f.State("ctr"); err != nil || st.(adt.Counter).N != 1 {
				t.Fatalf("State(ctr) = %v, %v; want 1", st, err)
			}
		})
	}
}

// checkpointFile returns the checkpoint file a log writes of states at lsn.
func checkpointFile(t *testing.T, lsn uint64, states map[string]adt.State) []byte {
	t.Helper()
	fs := wal.NewMemFS()
	src := newLeaderLog(t, fs, "src", wal.Options{})
	defer src.lg.Close()
	for src.lg.Stats().NextLSN < lsn {
		src.register("pad", adt.Counter{})
	}
	src.states = states
	if err := src.lg.Checkpoint(src.capture); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	_, file, err := wal.ReadCheckpoint("src", fs)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	return file
}

// snapshotPiece is a snapshot frame carrying all of file, a checkpoint at lsn.
func snapshotPiece(lsn uint64, file []byte) *wire.Repl {
	return &wire.Repl{Kind: wire.ReplSnapshot, NextLSN: lsn, Count: len(file), Frames: file}
}

// TestInstallSnapshotSwapsStore: a checkpoint install replaces the store;
// a read-only transaction opened before keeps its pre-checkpoint prefix,
// State and new transactions see the checkpoint, and a closed one fails
// with the one sentinel the leader uses too.
func TestInstallSnapshotSwapsStore(t *testing.T) {
	f := replayFollower(t)
	if err := f.applyBatch(batchOf(t, 1, commitOf(
		wal.Effect{Obj: "ctr", Op: adt.CtrAdd{Delta: 3}, Val: int64(3)},
	))); err != nil {
		t.Fatal(err)
	}
	old := f.Store().Begin(f.Metrics())

	if in, err := f.installSnapshot(nil, snapshotPiece(50, checkpointFile(t, 50, map[string]adt.State{"ctr": adt.Counter{N: 100}}))); err != nil || in != nil {
		t.Fatalf("installSnapshot = %v, %v; want it installed", in, err)
	}
	if v, err := old.Read("ctr", adt.CtrGet{}); err != nil || v != int64(3) {
		t.Fatalf("pre-install transaction read %v, %v; want its own prefix's 3", v, err)
	}
	if st, err := f.State("ctr"); err != nil || st.(adt.Counter).N != 100 {
		t.Fatalf("State after install = %v, %v; want the checkpoint's 100", st, err)
	}
	fresh := f.Store().Begin(f.Metrics())
	defer fresh.Close()
	if v, err := fresh.Read("ctr", adt.CtrGet{}); err != nil || v != int64(100) {
		t.Fatalf("post-install transaction read %v, %v; want 100", v, err)
	}
	old.Close()
	if _, err := old.Read("ctr", adt.CtrGet{}); !errors.Is(err, snap.ErrDone) {
		t.Fatalf("read through a closed transaction: err = %v, want snap.ErrDone", err)
	}
	if n := f.Metrics().SnapPinned.Load(); n != 1 {
		t.Fatalf("pinned gauge = %d, want only the open transaction", n)
	}
}

// TestBadSnapshotRedials: a snapshot the stream got wrong — a flipped
// byte, a file that is not one whole checkpoint frame, pieces that overrun
// the length or change the LSN or length the first one gave — is refused
// as the stream's fault, not the log's: the follower would redial, its
// log neither latched nor touched, and a good snapshot installs after.
func TestBadSnapshotRedials(t *testing.T) {
	file := checkpointFile(t, 50, map[string]adt.State{"ctr": adt.Counter{N: 100}})
	half := len(file) / 2
	flipped := bytes.Clone(file)
	flipped[half] ^= 1
	piece := func(lsn uint64, count int, b []byte) *wire.Repl {
		return &wire.Repl{Kind: wire.ReplSnapshot, NextLSN: lsn, Count: count, Frames: b}
	}
	for name, pieces := range map[string][]*wire.Repl{
		"a flipped byte":   {piece(50, len(file), flipped[:half]), piece(50, len(file), flipped[half:])},
		"two frames":       {piece(50, 2*len(file), file), piece(50, 2*len(file), file)},
		"a torn file":      {snapshotPiece(50, file[:len(file)-1])},
		"an overrun":       {piece(50, half, file)},
		"a changed LSN":    {piece(50, len(file), file[:half]), piece(51, len(file), file[half:])},
		"a changed length": {piece(50, len(file), file[:half]), piece(50, len(file)+1, file[half:])},
		"an empty file":    {piece(50, 0, nil)},
	} {
		t.Run(name, func(t *testing.T) {
			fs := wal.NewMemFS()
			f, err := OpenFollower("follower", wal.Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := f.applyBatch(batchOf(t, 0, wal.Record{Register: &wal.RegisterRecord{Name: "ctr", Initial: adt.Counter{}}})); err != nil {
				t.Fatal(err)
			}
			stats, dir := f.log.Stats(), dirBytes(t, fs, "follower")
			var in *wire.Repl
			for _, p := range pieces {
				if in, err = f.installSnapshot(in, p); err != nil {
					break
				}
			}
			if err == nil || errors.Is(err, errOwnLog) {
				t.Fatalf("installSnapshot = %v, want a stream error, not the log's", err)
			}
			if got := f.log.Stats(); got != stats {
				t.Fatalf("log moved to %+v from %+v", got, stats)
			}
			if got := dirBytes(t, fs, "follower"); !reflect.DeepEqual(got, dir) {
				t.Fatalf("directory changed: %v, was %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(dir)))
			}
			if in, err := f.installSnapshot(nil, snapshotPiece(50, file)); err != nil || in != nil {
				t.Fatalf("good snapshot after the bad one: %v, %v", in, err)
			}
			if st, err := f.State("ctr"); err != nil || st.(adt.Counter).N != 100 {
				t.Fatalf("State after install = %v, %v; want the checkpoint's 100", st, err)
			}
		})
	}
}

// dirBytes reads every file in dir.
func dirBytes(t *testing.T, fs wal.FS, dir string) map[string]string {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, n := range names {
		fl, err := fs.OpenFile(filepath.Join(dir, n), os.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(fl)
		fl.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[n] = string(b)
	}
	return out
}

// TestBatchInsideASnapshotRedials: a batch between the pieces of a
// snapshot ends the stream as the stream's fault, and the pieces received
// go with the connection: the log is as it was.
func TestBatchInsideASnapshotRedials(t *testing.T) {
	file := checkpointFile(t, 50, map[string]adt.State{"ctr": adt.Counter{N: 100}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br, bw := bufio.NewReader(c), bufio.NewWriter(c)
		if _, err := wire.ReadRequest(br); err != nil {
			return
		}
		piece := snapshotPiece(50, file)
		piece.Frames = file[:10]
		for _, r := range []*wire.Repl{{Kind: wire.ReplHello}, piece, {Kind: wire.ReplBatch}} {
			if wire.WriteFrameMax(bw, &wire.Response{OK: true, Repl: r}, wire.MaxResponseSize) != nil {
				return
			}
		}
		io.Copy(io.Discard, br) // the acks, until the follower hangs up
	}()
	f := replayFollower(t)
	stats := f.log.Stats()
	if err := f.stream(ln.Addr().String()); err == nil || errors.Is(err, errOwnLog) || !strings.Contains(err.Error(), "inside the snapshot") {
		t.Fatalf("stream = %v, want the batch inside the snapshot refused", err)
	}
	if got := f.log.Stats(); got != stats {
		t.Fatalf("log moved to %+v from %+v", got, stats)
	}
}

// TestSnapshotLargerThanAResponseCatchesUp: a checkpoint larger than one
// response frame may carry still bootstraps a fresh follower, which ends
// up holding the leader's checkpoint file byte for byte.
func TestSnapshotLargerThanAResponseCatchesUp(t *testing.T) {
	fs := wal.NewMemFS()
	leader := newLeaderLog(t, fs, "leader", wal.Options{SegmentBytes: 1 << 20})
	defer leader.lg.Close()
	big := strings.Repeat("x", 100<<10)
	for i := 0; i*len(big) <= wire.MaxResponseSize; i++ {
		leader.register(fmt.Sprintf("r%03d", i), adt.NewRegister(big))
	}
	if err := leader.lg.Checkpoint(leader.capture); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	leader.register("ctr", adt.Counter{})
	lsn, file, err := wal.ReadCheckpoint("leader", fs)
	if err != nil || len(file) <= wire.MaxResponseSize {
		t.Fatalf("leader checkpoint of %d B, %v; want more than %d B", len(file), err, wire.MaxResponseSize)
	}
	addr, stop := serveShipper(t, NewShipper(leader.lg, nil))
	defer stop()
	f, err := OpenFollower("follower", wal.Options{FS: fs})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close()
	go f.Run(addr)
	waitFor(t, "snapshot catch-up", func() bool {
		return f.Status().NextLSN == leader.lg.DurableLSN()
	})
	wantStates(t, f, leader.states)
	got, installed, err := wal.ReadCheckpoint("follower", fs)
	if err != nil || got != lsn || !bytes.Equal(installed, file) {
		t.Fatalf("follower checkpoint at %d of %d B (%v) is not the leader's %d B at %d", got, len(installed), err, len(file), lsn)
	}
}

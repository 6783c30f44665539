package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/clock"
	"nestedtx/internal/obs"
	"nestedtx/internal/snap"
	"nestedtx/internal/wal"
	"nestedtx/internal/wire"
)

// ErrDiverged reports that a shipped record did not replay cleanly
// against the follower's states: the logged value of some effect
// differs from what the operation returns here. That means the two
// histories are not the same history — the follower refuses to
// continue rather than serve states the leader never had.
var ErrDiverged = errors.New("repl: follower diverged from leader history")

// errOwnLog wraps a failure of the follower's own log: once it has
// latched, no stream can append to it again.
var errOwnLog = errors.New("repl: follower's own log failed")

// replReadTimeout bounds how long a follower waits for the next frame;
// the leader heartbeats every second, so a silent link is dead.
const replReadTimeout = 15 * time.Second

// Follower is a read replica: it maintains its own WAL as a prefix of
// the leader's durable history, replays committed effects into a
// committed-version store, and serves reads from it — the same store
// type, read the same way, as a leader's. It carries everything a
// promotion needs: Dir/WalOptions hand the data directory to
// nestedtx.OpenDurable, whose recovery re-verifies the inherited
// history before the promoted node accepts writes.
type Follower struct {
	dir  string
	opts wal.Options
	log  *wal.Log
	met  *obs.Metrics
	clk  clock.Clock // link-health and reconnect-backoff time source (wal.Options.Clock)

	mu   sync.Mutex
	snap *snap.Store // the replicated committed states; swapped by installSnapshot
	// applied is the LSN after the last record snap reflects, moved with
	// snap under mu: Status reports it, so a reader that sees an LSN there
	// finds its effects in State. The log's own NextLSN runs ahead of it
	// while a batch waits for its fsync and is replayed.
	applied       uint64
	leader        string
	leaderDurable uint64
	progress      time.Time // last time the local log advanced
	connected     bool

	// ctx ends streaming: Stop cancels it.
	ctx  context.Context
	stop context.CancelFunc
}

// OpenFollower opens (or recovers) the data directory as a replica.
// The recovered prefix is kept: streaming resumes from its NextLSN, so
// a restarted follower re-fetches only what it missed.
func OpenFollower(dir string, opts wal.Options) (*Follower, error) {
	opts.Metrics = obs.Or(opts.Metrics)
	lg, rec, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	f := &Follower{
		dir:      dir,
		opts:     opts,
		log:      lg,
		met:      opts.Metrics,
		clk:      clock.Or(opts.Clock),
		snap:     newStore(rec.States()),
		applied:  lg.Stats().NextLSN,
		progress: time.Now(),
	}
	f.ctx, f.stop = context.WithCancel(context.Background())
	lg.AutoCheckpoint(f.capture)
	return f, nil
}

// capture is the follower's checkpoint capture: the same log code a
// leader's manager drives, cut at the replay position. Under mu the store
// reflects exactly the records below applied, so a hold on it reads their
// redo. The log may run ahead of applied; its records stay for the redo.
func (f *Follower) capture(uint64) wal.Cut {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := f.snap.Hold()
	return wal.Cut{LSN: f.applied, States: h.States, Release: h.Release}
}

// Run streams from the leader until Stop (or Close) is called,
// reconnecting with backoff across leader restarts and partitions. It
// returns nil on Stop, ErrDiverged (wrapped) if replay ever contradicts
// the local states, and the local log's error (wrapped) if the follower's
// own log fails — the two conditions reconnecting cannot fix.
func (f *Follower) Run(leader string) error {
	f.mu.Lock()
	f.leader = leader
	f.mu.Unlock()
	attempt := 0 // failed links since the last one that held up
	for f.ctx.Err() == nil {
		start := f.clk.Now()
		err := f.stream(leader)
		f.setDisconnected()
		if f.ctx.Err() != nil {
			return nil // Close may have failed the log under the stream
		}
		if errors.Is(err, ErrDiverged) || errors.Is(err, errOwnLog) {
			return err
		}
		if f.clk.Now().Sub(start) > 5*time.Second {
			attempt = 0 // the link worked for a while; start backoff over
		}
		clock.Wait(f.clk, clock.Backoff(attempt, 50*time.Millisecond), f.ctx.Done())
		attempt++
	}
	return nil
}

// stream runs one connection's worth of replication: dial, HELLO at the
// local NextLSN, then apply pushed frames and ack until something
// breaks.
func (f *Follower) stream(leader string) error {
	conn, err := net.DialTimeout("tcp", leader, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Unblock the read loop when Stop is called mid-stream.
	defer context.AfterFunc(f.ctx, func() { conn.Close() })()

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	seq := uint64(1)
	if err := wire.WriteFrame(bw, &wire.Request{
		Seq: seq, Type: wire.TReplHello, Lsn: f.log.Stats().NextLSN,
	}); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(replReadTimeout))
	resp, err := wire.ReadResponse(br)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("repl: leader refused stream: %s (%s)", resp.Err, resp.Code)
	}
	if resp.Repl == nil || resp.Repl.Kind != wire.ReplHello {
		return fmt.Errorf("repl: unexpected hello reply")
	}
	f.noteConnected(leader, resp.Repl.DurableLSN)

	var in *wire.Repl // a snapshot whose pieces are still arriving
	for {
		conn.SetReadDeadline(time.Now().Add(replReadTimeout))
		resp, err := wire.ReadResponse(br)
		if err != nil {
			return err
		}
		if resp.Repl == nil {
			continue
		}
		switch kind := resp.Repl.Kind; {
		case kind == wire.ReplSnapshot:
			in, err = f.installSnapshot(in, resp.Repl)
		case in != nil:
			err = fmt.Errorf("repl: %s frame inside the snapshot at %d", kind, in.NextLSN)
		case kind == wire.ReplBatch:
			err = f.applyBatch(resp.Repl)
		default:
			err = fmt.Errorf("repl: unknown stream frame kind %q", kind)
		}
		if err != nil {
			return err
		}
		seq++
		if err := wire.WriteFrame(bw, &wire.Request{
			Seq: seq, Type: wire.TReplAck, Lsn: f.log.Stats().NextLSN,
		}); err != nil {
			return err
		}
	}
}

// applyBatch makes a shipped batch durable locally and then visible:
// decode (re-verifying each record's CRC), append to the local WAL in
// strict LSN order, then replay the effects into the store with the
// same value re-validation recovery's redo performs — divergence here
// is fatal, not retryable.
func (f *Follower) applyBatch(r *wire.Repl) error {
	f.noteLeaderDurable(r.DurableLSN)
	if r.Count == 0 {
		f.publishLag()
		return nil // heartbeat
	}
	recs, err := wal.DecodeFrames(r.Frames)
	if err != nil {
		return fmt.Errorf("repl: batch at %d: %w", r.FirstLSN, err)
	}
	// A stream starts at this log's NextLSN and ships contiguous batches
	// (a snapshot moves both ends to its LSN), so a batch that does not
	// start there, overlapping or leaving a gap, is the stream's fault.
	if next := f.log.Stats().NextLSN; len(recs) == 0 || recs[0].LSN != next {
		return fmt.Errorf("repl: batch at %d does not continue the log at %d", r.FirstLSN, next)
	}
	if err := f.log.AppendBatch(recs); err != nil {
		return fmt.Errorf("%w: %w", errOwnLog, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rec := range recs {
		switch {
		case rec.Register != nil:
			if _, err := f.snap.Head(rec.Register.Name); err != nil {
				f.snap.Base(rec.Register.Name, rec.Register.Initial)
			}
		case rec.Commit != nil:
			updates, err := wal.Redo(rec, func(obj string) (adt.State, bool) {
				st, err := f.snap.Head(obj)
				return st, err == nil
			})
			if err != nil {
				return fmt.Errorf("%w: %v", ErrDiverged, err)
			}
			// Publish the record's writes as one atomic snapshot step:
			// replay order is WAL order is the leader's conflict order,
			// so follower snapshots pin the same serial prefixes leader
			// snapshots do (just possibly a little behind).
			if len(updates) > 0 {
				f.snap.Publish(rec.Commit.TID, updates)
				f.met.SnapPublishes.Inc()
			}
		}
		f.applied = rec.LSN + 1
	}
	f.progress = time.Now()
	f.met.ObserveReplApply(len(recs))
	f.publishLagLocked()
	return nil
}

// installSnapshot adds a piece of the leader's checkpoint file to in, the
// snapshot so far, and returns it; once the file is whole it replaces the
// local log and store with it and returns nil — the catch-up path for a
// follower below the leader's low-water mark. A piece that does not
// continue in, or a file that is not a checkpoint, fails the stream only.
func (f *Follower) installSnapshot(in, r *wire.Repl) (*wire.Repl, error) {
	f.noteLeaderDurable(r.DurableLSN)
	if in == nil {
		in = &wire.Repl{NextLSN: r.NextLSN, Count: r.Count}
	}
	if r.NextLSN != in.NextLSN || r.Count != in.Count || len(r.Frames) > in.Count-len(in.Frames) {
		return nil, fmt.Errorf("repl: snapshot piece does not continue the %d B file at %d", in.Count, in.NextLSN)
	}
	if in.Frames = append(in.Frames, r.Frames...); len(in.Frames) < in.Count {
		return in, nil
	}
	states, err := f.log.InstallSnapshot(in.Frames)
	if errors.Is(err, wal.ErrBadSnapshot) {
		return nil, fmt.Errorf("repl: snapshot at %d: %w", in.NextLSN, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errOwnLog, err)
	}
	// The old version chains describe a history this checkpoint replaces;
	// swap in a fresh store. Pins already taken keep reading the old
	// store's (still valid, just pre-checkpoint) prefix until released.
	sn := newStore(states)
	f.mu.Lock()
	f.snap = sn
	f.applied = f.log.Stats().NextLSN // the file's LSN: only this goroutine stages
	f.progress = time.Now()
	f.mu.Unlock()
	f.publishLag()
	return nil, nil
}

func (f *Follower) noteConnected(leader string, leaderDurable uint64) {
	f.mu.Lock()
	f.connected = true
	if leaderDurable > f.leaderDurable {
		f.leaderDurable = leaderDurable
	}
	f.mu.Unlock()
	f.publishLag()
}

func (f *Follower) setDisconnected() {
	f.mu.Lock()
	f.connected = false
	f.mu.Unlock()
}

func (f *Follower) noteLeaderDurable(lsn uint64) {
	f.mu.Lock()
	if lsn > f.leaderDurable {
		f.leaderDurable = lsn
	}
	f.mu.Unlock()
}

func (f *Follower) publishLag() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.publishLagLocked()
}

func (f *Follower) publishLagLocked() {
	if f.leaderDurable <= f.applied {
		f.met.SetReplLag(0, 0)
		return
	}
	f.met.SetReplLag(f.leaderDurable-f.applied, time.Since(f.progress))
}

// newStore returns a store whose every chain starts at states.
func newStore(states map[string]adt.State) *snap.Store {
	sn := snap.New(false)
	for x, st := range states {
		sn.Base(x, st)
	}
	return sn
}

// Store returns the committed-version store this replica serves reads
// from: its head is the replicated committed-to-root state, and a
// read-only transaction begun on it pins the commit records replayed so
// far — the same consistent-cut guarantee a leader gives, replay order
// being WAL order being the leader's conflict order, just possibly
// lagging by the replication delay. installSnapshot swaps it, so callers
// ask again per request instead of holding on to it.
func (f *Follower) Store() *snap.Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap
}

// State returns the replicated (committed-to-root) state of an object.
func (f *Follower) State(name string) (adt.State, error) {
	return f.Store().Head(name)
}

// Status reports the follower-side replication view. NextLSN is the
// replay position — every record below it is reflected in State — and the
// lag is counted from it; DurableLSN and CheckpointLSN are the local log's.
func (f *Follower) Status() *wire.ReplStatus {
	st := f.log.Stats()
	f.mu.Lock()
	defer f.mu.Unlock()
	out := &wire.ReplStatus{
		Role:             "follower",
		NextLSN:          f.applied,
		DurableLSN:       st.DurableLSN,
		CheckpointLSN:    st.CheckpointLSN,
		Leader:           f.leader,
		LeaderDurableLSN: f.leaderDurable,
		Connected:        f.connected,
	}
	if f.leaderDurable > f.applied {
		out.LagRecords = f.leaderDurable - f.applied
		out.LagSeconds = time.Since(f.progress).Seconds()
	}
	return out
}

// Dir returns the data directory, for promotion.
func (f *Follower) Dir() string { return f.dir }

// WalOptions returns the options the log was opened with, for
// promotion (nestedtx.OpenDurable reopens the directory with them).
func (f *Follower) WalOptions() wal.Options { return f.opts }

// Metrics returns the follower's metrics registry.
func (f *Follower) Metrics() *obs.Metrics { return f.met }

// Leader returns the address Run was pointed at ("" before Run).
func (f *Follower) Leader() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leader
}

// Stop ends streaming (Run returns) but leaves the log open and the
// store serveable.
func (f *Follower) Stop() { f.stop() }

// Close stops streaming and closes the local log. The store remains
// readable; the data directory is ready for OpenDurable.
func (f *Follower) Close() error {
	f.Stop()
	return f.log.Close()
}

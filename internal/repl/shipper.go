// Package repl is WAL log-shipping replication. The central fact it
// leans on: because a committing top-level transaction appends (and
// fsyncs) its redo record BEFORE releasing its locks, log order agrees
// with the per-object conflict order — the WAL is not merely a redo aid
// but a serial history of the system (the same fact
// nestedtx.Recovery.Verify exploits). Shipping that history, byte-checked,
// to a follower and replaying it there therefore reproduces the leader's
// committed states exactly, and a promoted follower can re-certify the
// whole inherited history against the Theorem-34 checker before
// accepting writes.
//
// The leader side is the Shipper: one Serve call per follower
// connection, tailing the live log with wal.Tailer, shipping only
// records at or below the durable LSN (unsynced bytes are visible in
// segment files, but shipping them could diverge follower from leader
// if the leader crashes before the fsync). The follower side is the
// Follower: it appends shipped batches to its own WAL (re-verifying the
// per-record CRCs, which cross the wire intact), applies the effects to
// its served states with the same value re-validation recovery uses,
// and acks its durable position.
//
// Replication is asynchronous: a leader ack to a client does NOT mean
// the commit reached a follower. Failover that must not lose acked
// commits has to fence the leader and drain the follower to zero lag
// first — see the controlled-failover test in internal/server.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nestedtx/internal/obs"
	"nestedtx/internal/wal"
	"nestedtx/internal/wire"
)

const (
	// maxBatchRecords and maxBatchBytes bound one REPL_BATCH frame, the
	// byte bound one snapshot piece too; with JSON/base64 overhead the
	// wire frame stays well under wire.MaxResponseSize.
	maxBatchRecords = 512
	maxBatchBytes   = 256 << 10

	// heartbeatEvery is the idle cadence of empty batch frames carrying
	// the leader's durable LSN (lag signal + liveness probe in both
	// directions).
	heartbeatEvery = time.Second
)

// Shipper streams a log's records to replication followers. One Shipper
// serves all followers of a log; each follower connection runs one
// Serve call.
type Shipper struct {
	log *wal.Log
	met *obs.Metrics

	mu        sync.Mutex
	followers map[*followerConn]struct{}
}

// followerConn is the leader-side view of one connected follower.
type followerConn struct {
	remote string

	mu       sync.Mutex
	ack      uint64    // next LSN the follower wants (all below are durable there)
	progress time.Time // last time ack advanced
	// Oldest unacked batch, for ship latency: set when a batch is sent
	// and no older one is outstanding, cleared by the covering ack.
	pendingLSN uint64 // LSN the covering ack must reach (last record + 1)
	pendingAt  time.Time
}

// NewShipper wraps a live log. A nil met means nobody reads the metrics.
func NewShipper(lg *wal.Log, met *obs.Metrics) *Shipper {
	return &Shipper{log: lg, met: obs.Or(met), followers: make(map[*followerConn]struct{})}
}

// Serve runs the push stream for one follower connection until done is
// closed, the peer disconnects, or an error. req is the REPL_HELLO that
// opened the stream (req.Lsn = the follower's next wanted LSN); br/bw
// wrap the connection. Serve owns both directions: it pushes Response
// frames and consumes the follower's REPL_ACK requests.
func (sh *Shipper) Serve(done <-chan struct{}, remote string, req *wire.Request, br *bufio.Reader, bw *bufio.Writer) error {
	st := sh.log.Stats()
	if req.Lsn > st.NextLSN {
		err := fmt.Errorf("repl: follower at LSN %d is ahead of this leader at %d (split brain?)", req.Lsn, st.NextLSN)
		wire.WriteFrameMax(bw, &wire.Response{Seq: req.Seq, OK: false,
			Code: wire.CodeBadRequest, Err: err.Error()}, wire.MaxResponseSize)
		return err
	}
	f := &followerConn{remote: remote, ack: req.Lsn, progress: time.Now()}
	sh.mu.Lock()
	sh.followers[f] = struct{}{}
	sh.mu.Unlock()
	sh.met.ReplFollowers.Add(1)
	defer func() {
		sh.mu.Lock()
		delete(sh.followers, f)
		sh.mu.Unlock()
		sh.met.ReplFollowers.Add(-1)
		sh.publishLag()
	}()

	if err := wire.WriteFrameMax(bw, &wire.Response{Seq: req.Seq, OK: true, Repl: &wire.Repl{
		Kind: wire.ReplHello, NextLSN: req.Lsn, DurableLSN: sh.log.DurableLSN(),
	}}, wire.MaxResponseSize); err != nil {
		return err
	}

	// Acks arrive interleaved with our pushes; a dedicated reader keeps
	// them flowing while the ship loop is blocked writing.
	ackCh := make(chan uint64, 64)
	ackErr := make(chan error, 1)
	go func() {
		for {
			areq, err := wire.ReadRequest(br)
			if err != nil {
				ackErr <- err
				return
			}
			if areq.Type != wire.TReplAck {
				continue
			}
			select {
			case ackCh <- areq.Lsn:
			case <-done:
				return
			}
		}
	}()

	tail := wal.NewTailer(sh.log.Dir(), sh.log.FS(), req.Lsn)
	watch := sh.log.Watch()
	defer sh.log.Unwatch(watch)
	heartbeat := time.NewTicker(heartbeatEvery)
	defer heartbeat.Stop()

	for {
		// Drain acks and check for shutdown without blocking.
		for drained := false; !drained; {
			select {
			case lsn := <-ackCh:
				sh.noteAck(f, lsn)
			case err := <-ackErr:
				return err
			case <-done:
				return nil
			default:
				drained = true
			}
		}
		// Ship only durable records: the tailer can see bytes the syncer
		// has not fsynced yet, and those must never leave the leader.
		if durable := sh.log.DurableLSN(); tail.NextLSN() < durable {
			n := maxBatchRecords
			if behind := durable - tail.NextLSN(); behind < uint64(n) {
				n = int(behind)
			}
			recs, err := tail.Next(n, maxBatchBytes)
			if errors.Is(err, wal.ErrTruncated) {
				// The position was checkpointed away (slow follower, or a
				// fresh one below the low-water mark): send the newest
				// on-disk checkpoint as a snapshot and retail from there.
				lsn, serr := sh.sendSnapshot(bw)
				if serr != nil {
					return serr
				}
				tail = wal.NewTailer(sh.log.Dir(), sh.log.FS(), lsn)
				continue
			}
			if err != nil {
				return err
			}
			if len(recs) > 0 {
				if err := sh.sendBatch(bw, f, recs); err != nil {
					return err
				}
				continue
			}
		}
		// Caught up: wait for new durable records, an ack, or the
		// heartbeat tick.
		select {
		case <-done:
			return nil
		case err := <-ackErr:
			return err
		case lsn := <-ackCh:
			sh.noteAck(f, lsn)
		case <-watch:
		case <-heartbeat.C:
			if err := sh.sendHeartbeat(bw); err != nil {
				return err
			}
		}
	}
}

func (sh *Shipper) sendBatch(bw *bufio.Writer, f *followerConn, recs []wal.Record) error {
	var frames []byte
	var err error
	for _, r := range recs {
		if frames, err = wal.EncodeFrame(frames, r); err != nil {
			return err
		}
	}
	now := time.Now()
	if err := wire.WriteFrameMax(bw, &wire.Response{OK: true, Repl: &wire.Repl{
		Kind:       wire.ReplBatch,
		FirstLSN:   recs[0].LSN,
		Count:      len(recs),
		DurableLSN: sh.log.DurableLSN(),
		Frames:     frames,
	}}, wire.MaxResponseSize); err != nil {
		return err
	}
	f.mu.Lock()
	if f.pendingLSN == 0 {
		f.pendingLSN = recs[len(recs)-1].LSN + 1
		f.pendingAt = now
	}
	f.mu.Unlock()
	sh.met.ObserveReplBatch(len(recs))
	return nil
}

func (sh *Shipper) sendHeartbeat(bw *bufio.Writer) error {
	return wire.WriteFrameMax(bw, &wire.Response{OK: true, Repl: &wire.Repl{
		Kind:       wire.ReplBatch,
		DurableLSN: sh.log.DurableLSN(),
	}}, wire.MaxResponseSize)
}

// sendSnapshot ships the newest on-disk checkpoint file as written, in
// pieces of at most maxBatchBytes, and returns its LSN (the position
// tailing resumes from). It needs no coordination with the writer.
func (sh *Shipper) sendSnapshot(bw *bufio.Writer) (uint64, error) {
	lsn, file, err := wal.ReadCheckpoint(sh.log.Dir(), sh.log.FS())
	if err != nil {
		// A truncated tail position with no checkpoint on disk cannot
		// happen (truncation is what checkpoints do).
		return 0, fmt.Errorf("repl: tail truncated: %w", err)
	}
	for at := 0; at < len(file); at += maxBatchBytes {
		if err := wire.WriteFrameMax(bw, &wire.Response{OK: true, Repl: &wire.Repl{
			Kind:       wire.ReplSnapshot,
			NextLSN:    lsn,
			Count:      len(file),
			DurableLSN: sh.log.DurableLSN(),
			Frames:     file[at:min(at+maxBatchBytes, len(file))],
		}}, wire.MaxResponseSize); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

func (sh *Shipper) noteAck(f *followerConn, lsn uint64) {
	var rtt time.Duration
	f.mu.Lock()
	if lsn > f.ack {
		f.ack = lsn
		f.progress = time.Now()
	}
	if f.pendingLSN != 0 && lsn >= f.pendingLSN {
		rtt = time.Since(f.pendingAt)
		f.pendingLSN = 0
	}
	f.mu.Unlock()
	sh.met.ObserveReplAck(rtt)
	sh.publishLag()
}

// publishLag exports the worst lag across connected followers.
func (sh *Shipper) publishLag() {
	durable := sh.log.DurableLSN()
	now := time.Now()
	var worstRec uint64
	var worstLag time.Duration
	sh.mu.Lock()
	for f := range sh.followers {
		rec, lag := f.lag(durable, now)
		if rec > worstRec {
			worstRec = rec
		}
		if lag > worstLag {
			worstLag = lag
		}
	}
	sh.mu.Unlock()
	sh.met.SetReplLag(worstRec, worstLag)
}

func (f *followerConn) lag(durable uint64, now time.Time) (uint64, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if durable <= f.ack {
		return 0, 0
	}
	return durable - f.ack, now.Sub(f.progress)
}

// Status reports the leader-side replication view.
func (sh *Shipper) Status() *wire.ReplStatus {
	st := sh.log.Stats()
	now := time.Now()
	out := &wire.ReplStatus{
		Role:          "leader",
		NextLSN:       st.NextLSN,
		DurableLSN:    st.DurableLSN,
		CheckpointLSN: st.CheckpointLSN,
	}
	sh.mu.Lock()
	for f := range sh.followers {
		rec, lag := f.lag(st.DurableLSN, now)
		f.mu.Lock()
		ack := f.ack
		f.mu.Unlock()
		out.Followers = append(out.Followers, wire.ReplFollower{
			Remote: f.remote, AckLSN: ack,
			LagRecords: rec, LagSeconds: lag.Seconds(),
		})
	}
	sh.mu.Unlock()
	sort.Slice(out.Followers, func(i, j int) bool {
		return out.Followers[i].Remote < out.Followers[j].Remote
	})
	return out
}

// Package wal is the durability subsystem: a segmented, CRC32C-checked,
// append-only redo log of committed top-level transactions, with group
// commit, checkpoints, and a crash-recovery path whose result is not
// merely plausible but machine-checked — the recovered history is
// reconstructed as a formal schedule and replayed through the Theorem-34
// serial-correctness checker (internal/checker).
//
// The protocol is write-ahead logging at the top level of the
// transaction tree, split at two points. A top-level commit *stages* its
// redo record — LSN reserved, frame in the write buffer — before the lock
// manager releases its locks (Stage), and is *acknowledged* only once an
// fsync covers that LSN (Ticket.Wait). Under Moss locking the first half
// has a crucial consequence: any later transaction that conflicts with
// the committer can only be granted its lock after the release, hence
// after the stage — so for every object, log order agrees with the
// runtime conflict order. The second half rests on the log being one
// LSN-ordered prefix with a prefix-closed durable watermark: a
// transaction that read a released version staged a later LSN, so it is
// durable, and acknowledged, no earlier than its predecessor, and a
// crash keeps both or neither. The log is therefore a serial history,
// and replaying its prefix after a crash yields a state the checker can
// certify (Theorem 34 across a crash). No lock is held across a device
// latency.
//
// The commit path is pipelined — the log splits three concerns that each
// serialize only against themselves:
//
//   - LSN reservation is a short critical section under the state mutex;
//     record encoding happens outside every lock.
//   - Frames are staged in LSN order under a dedicated write mutex (a
//     ticket per reserved LSN) that is never held across a batch fsync —
//     appenders keep staging while a flush is in flight, and a whole
//     staged batch reaches the segment as one write syscall.
//   - The sync path (the syncer goroutine, Sync, and rotation seals)
//     drains the staged batch and issues one shared fsync for it. The
//     durable watermark published after each completed flush is the
//     highest LSN staged when that flush was *issued* — frames that land
//     mid-flush wait for the next one.
//
// Group commit falls out of the split: every appender parks a per-LSN
// waiter after its write, and one fsync retires all waiters below the
// watermark it covers, so concurrent commits share the flush — writers of
// one hot object included, since the next one is granted as soon as the
// previous one has staged. Staging is bounded: a frame waits while the
// write buffer holds more than a quarter segment of unflushed bytes, so a
// stalled device stalls its stagers instead of growing the heap.
// Checkpoints snapshot the committed-to-root object states behind a
// writer lock that excludes staging, so a checkpoint is exactly
// equivalent to the redo of every record below its LSN; it seals those
// records itself and retires their tickets.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nestedtx/internal/clock"
	"nestedtx/internal/obs"
)

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. Zero means the 4 MiB default.
	SegmentBytes int64
	// FS is the backing file system; nil means the real one (OSFS).
	FS FS
	// Metrics receives fsync latencies, append/fsync/checkpoint counts
	// and the batching high-water mark; nil means nobody reads them.
	Metrics *obs.Metrics
	// Clock is the time source for the group-commit machinery (the
	// batch-gather budget). nil means the wall clock; the deterministic
	// simulator injects its virtual clock so a seeded run's batching
	// schedule is event-queue time.
	Clock clock.Clock
}

const defaultSegmentBytes = 4 << 20

// waiter is one parked appender: ch receives the fsync verdict for lsn.
type waiter struct {
	lsn uint64
	ch  chan error
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	dir string
	fs  FS
	met *obs.Metrics
	clk clock.Clock

	segLimit int64
	// wbufMax bounds the staged-but-unflushed bytes: writeFrame waits
	// while wbuf holds more (a quarter of segLimit).
	wbufMax int

	// gate orders staging against checkpoints: every stage holds a read
	// lock from its write through its apply callback — microseconds, never
	// an fsync; Checkpoint takes the write lock, so when it runs every
	// staged record has been applied and no commit is between the two.
	gate sync.RWMutex

	// wmu is the write path: it serializes frame staging and rotations.
	// Appenders take it per frame, in LSN order (writeSeq is the ticket),
	// stage their frame into wbuf and return — the segment write itself
	// happens on the sync path, which drains the whole staged batch with
	// one write immediately before each fsync. wmu is never held across a
	// batch fsync — only rotation's seal fsync runs under it.
	wmu      sync.Mutex
	wcond    *sync.Cond // broadcast when writeSeq advances
	wroom    *sync.Cond // signalled when wbuf is swapped out (one waiter: the head of the ticket line)
	writeSeq uint64     // LSN whose frame may be staged next
	wbuf     []byte     // frames staged but not yet written to the segment
	f        File       // active segment
	segName  string     // file name of the active segment
	segBytes int64      // bytes staged+written to the active segment

	// smu is the sync path: it serializes batch drains, fsyncs and
	// file-handle swaps (rotation, checkpoint cutover) against each
	// other. Appenders never take it, so frame staging proceeds while a
	// flush is in flight. Lock order: gate → wmu → smu → mu.
	smu sync.Mutex

	// mu guards the logical state below. Critical sections are short:
	// mu is never held across an encode, a write, or an fsync.
	mu           sync.Mutex
	nextLSN      uint64   // next LSN to reserve
	written      uint64   // every LSN below this is staged or written in its segment
	durable      uint64   // every LSN below this is covered by an fsync
	ckptLSN      uint64   // next LSN after the newest checkpoint (redo low-water)
	statSegName  string   // mirror of segName for lock-free-ish Stats
	statSegBytes int64    // mirror of segBytes for Stats
	waiters      []waiter // parked appenders, ascending LSN
	watchers     []chan struct{}
	err          error // latched fatal error: log is read-only from here on
	closed       bool

	// lastSync is the duration of the most recent batch fsync, in
	// nanoseconds, and lastBatch the number of waiters it retired: the
	// adaptive gather (see gatherBatch) budgets by the former and exits
	// early on the latter.
	lastSync  atomic.Int64
	lastBatch atomic.Int64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

func segmentName(lsn uint64) string    { return fmt.Sprintf("wal-%016d.seg", lsn) }
func checkpointName(lsn uint64) string { return fmt.Sprintf("ckpt-%016d.ckpt", lsn) }

// Open opens (creating if needed) the log in dir, recovering whatever a
// previous process left behind: it loads the newest valid checkpoint,
// redoes every intact record past it, truncates a torn tail at the first
// bad frame, and returns the resulting Recovery alongside the ready-to-
// append Log. New appends continue the LSN sequence where the recovered
// prefix ends.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	// Reject an unusable directory at the boundary, not mid-commit: one
	// we cannot write to would surface as a failed append on the first
	// commit.
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	if err := probeWritable(fs, dir); err != nil {
		return nil, nil, fmt.Errorf("wal: data dir %s not writable: %w", dir, err)
	}
	rec, err := scanDir(fs, dir, true)
	if err != nil {
		return nil, nil, err
	}

	l := &Log{
		dir:      dir,
		fs:       fs,
		met:      obs.Or(opts.Metrics),
		clk:      clock.Or(opts.Clock),
		segLimit: opts.SegmentBytes,
		wbufMax:  int(opts.SegmentBytes / 4),
		writeSeq: rec.NextLSN,
		nextLSN:  rec.NextLSN,
		written:  rec.NextLSN,
		ckptLSN:  rec.CheckpointLSN,
		durable:  rec.NextLSN, // the recovered prefix is on stable storage
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.wcond = sync.NewCond(&l.wmu)
	l.wroom = sync.NewCond(&l.wmu)
	// Continue the last surviving segment, or start a fresh one.
	name := rec.tailSegment
	flag := os.O_WRONLY | os.O_APPEND
	if name == "" {
		name = segmentName(l.nextLSN)
		flag |= os.O_CREATE
	}
	f, err := fs.OpenFile(filepath.Join(dir, name), flag, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open segment: %w", err)
	}
	l.f, l.segName = f, name
	size, err := fs.Size(filepath.Join(dir, name))
	if err != nil {
		// A continued tail segment whose size we cannot read would leave
		// segBytes at zero and misaccount the rotation threshold for the
		// whole recovered segment — fail Open instead.
		f.Close()
		return nil, nil, fmt.Errorf("wal: size %s: %w", name, err)
	}
	l.segBytes = size
	l.statSegName, l.statSegBytes = l.segName, l.segBytes
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: sync dir: %w", err)
	}
	l.met.WalCheckpointLSN.Set(int64(l.ckptLSN))
	go l.syncer()
	return l, rec, nil
}

// Append writes one record, waits until it is durable, and returns its
// LSN. The record's LSN field is assigned by the log.
func (l *Log) Append(r Record) (uint64, error) {
	l.gate.RLock()
	defer l.gate.RUnlock()
	ch, lsn, err := l.enqueue(r, false)
	if err != nil {
		return 0, err
	}
	if err := <-ch; err != nil {
		return 0, err
	}
	return lsn, nil
}

// Ticket is a staged record's claim on the fsync that will cover it.
type Ticket struct{ ch chan error }

// Wait parks until the ticket's record is durable — covered by a batch
// fsync, a rotation seal or a checkpoint — and returns nil, or returns
// the fault that poisoned the log first: the record may or may not have
// reached the disk, and only recovery can say.
func (t Ticket) Wait() error { return <-t.ch }

// Stage reserves the next LSN for r, stages its frame and runs apply
// with that LSN — all while holding the checkpoint gate, so a concurrent
// Checkpoint can never observe a state whose last commit is not yet in
// the log (or vice versa) — and returns without waiting for the device. A
// stage error means r was not logged and apply did not run; apply's own
// error is returned as-is. The record is durable no later than any record
// staged after it: a caller that does not Wait is covered by the next one
// that does, and by Sync, Checkpoint and Close.
//
// The gate is shared (stagers hold read locks), so disjoint commits stage,
// release their locks and record their events in parallel.
func (l *Log) Stage(r Record, apply func(lsn uint64) error) (Ticket, error) {
	l.gate.RLock()
	defer l.gate.RUnlock()
	ch, lsn, err := l.enqueue(r, false)
	if err != nil {
		return Ticket{}, err
	}
	if apply != nil {
		if err := apply(lsn); err != nil {
			return Ticket{}, err
		}
	}
	return Ticket{ch}, nil
}

// AppendApply is Stage followed by Wait: r is durable on return.
func (l *Log) AppendApply(r Record, apply func() error) error {
	var staged func(uint64) error
	if apply != nil {
		staged = func(uint64) error { return apply() }
	}
	t, err := l.Stage(r, staged)
	if err != nil {
		return err
	}
	return t.Wait()
}

// AppendBatch writes a contiguous run of already-numbered records (a
// replication batch) and waits for one fsync to cover them all. Unlike
// Append, the records keep the LSNs they carry — they continue the
// leader's numbering — and a record whose LSN does not equal the log's
// next LSN is refused, so a follower's log is always an exact LSN prefix
// of its leader's. On an error partway, the already-enqueued prefix
// remains valid (it is contiguous); the caller resynchronises by asking
// the leader to resume from Stats().NextLSN.
func (l *Log) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.gate.RLock()
	defer l.gate.RUnlock()
	var last chan error
	for i := range recs {
		ch, _, err := l.enqueue(recs[i], true)
		if err != nil {
			return err
		}
		last = ch
	}
	// Per-LSN retirement means the last record's ack covers the whole
	// contiguous run.
	return <-last
}

// enqueue assigns the record its LSN (or, with strict set, verifies the
// LSN it carries continues the sequence), writes its frame into the
// active segment in LSN order and parks a waiter for a covering fsync.
//
// The expensive work — JSON encoding and CRC framing — happens outside
// every lock: the record's body is encoded before the reservation (so an
// unencodable record fails without leaving a hole in the sequence) and
// sealed with the reserved LSN afterwards, all in one pooled buffer that
// writeFrame copies into the staging buffer.
func (l *Log) enqueue(r Record, strict bool) (chan error, uint64, error) {
	bp := frameBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		if cap(buf) <= maxPooledFrame {
			*bp = buf
			frameBufs.Put(bp)
		}
	}()
	buf, err := stageRecord(buf, r)
	if err != nil {
		return nil, 0, err
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, 0, fmt.Errorf("wal: log closed")
	}
	if lerr := l.err; lerr != nil {
		l.mu.Unlock()
		return nil, 0, fmt.Errorf("wal: log failed: %w", lerr)
	}
	if strict && r.LSN != l.nextLSN {
		want := l.nextLSN
		l.mu.Unlock()
		return nil, 0, fmt.Errorf("wal: batch LSN gap: got %d, want %d", r.LSN, want)
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.mu.Unlock()

	buf, start := sealFrame(buf, frameRoom, lsn)
	ch := make(chan error, 1)
	if err := l.writeFrame(lsn, buf[start:], ch); err != nil {
		return nil, 0, err
	}
	return ch, lsn, nil
}

// frameBufs recycles enqueue's encode buffers; one that a large record
// grew past maxPooledFrame is dropped rather than pinned.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 64 << 10

// writeFrame stages frame as record lsn of the log. Frames enter the
// write path in LSN order — writeSeq is the ticket — but the segment
// write itself is deferred: frames accumulate in wbuf and the sync path
// drains the staged batch with a single write immediately before each
// fsync, so a batch of n commits costs one write syscall plus one fsync
// no matter how large n is. The one thing that blocks here is the byte
// budget: while wbuf holds more than wbufMax the frame waits (on wroom;
// it is the head of the ticket line, so it waits alone) for a flush to
// swap the buffer out (every staged frame has kicked the syncer,
// so one is coming), which bounds wbuf at the budget plus one frame
// however long an fsync stalls. On success the caller's waiter is parked
// and retired — or failed, if the batch write or its fsync fails — by the
// covering flush.
func (l *Log) writeFrame(lsn uint64, frame []byte, ch chan error) error {
	l.wmu.Lock()
	for l.writeSeq != lsn {
		l.wcond.Wait()
	}
	for len(l.wbuf) > l.wbufMax {
		l.wroom.Wait()
	}
	// The sequence must advance even on failure, or every later ticket
	// would wait forever; they fail fast on the latched error instead.
	defer func() {
		l.writeSeq = lsn + 1
		l.wcond.Broadcast()
		l.wmu.Unlock()
	}()
	l.mu.Lock()
	lerr := l.err
	l.mu.Unlock()
	if lerr != nil {
		// A predecessor's batch failed: never stage a frame after a hole.
		return fmt.Errorf("wal: log failed: %w", lerr)
	}
	if l.segBytes > 0 && l.segBytes+int64(len(frame)) > l.segLimit {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	l.wbuf = append(l.wbuf, frame...)
	l.segBytes += int64(len(frame))
	l.met.WalAppends.Inc()
	l.mu.Lock()
	l.written = lsn + 1
	l.statSegBytes = l.segBytes
	l.waiters = append(l.waiters, waiter{lsn: lsn, ch: ch})
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return nil
}

// drain swaps the staged batch out of wbuf and wakes the stager held at
// the byte budget. Called with wmu held.
func (l *Log) drain() []byte {
	buf := l.wbuf
	l.wbuf = nil
	l.wroom.Signal()
	return buf
}

// latch records the first fatal error; the log is read-only from here on.
func (l *Log) latch(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// rotate seals the active segment (drain the staged frames, fsync —
// which also publishes the durable mark and retires the covered
// waiters — then close) and opens a fresh one named after the next LSN.
// Called with wmu held; takes smu so the handle swap cannot race an
// in-flight batch fsync.
func (l *Log) rotate() error {
	l.smu.Lock()
	defer l.smu.Unlock()
	buf := l.drain()
	l.mu.Lock()
	target := l.written
	l.mu.Unlock()
	start := time.Now()
	var err error
	if len(buf) > 0 {
		if _, werr := l.f.Write(buf); werr != nil {
			err = fmt.Errorf("wal: rotate write: %w", werr)
		}
	}
	if err == nil {
		if serr := l.f.Sync(); serr != nil {
			err = fmt.Errorf("wal: rotate sync: %w", serr)
		}
	}
	if err != nil {
		l.latch(err)
		l.finishFlush(target, time.Since(start), err)
		return err
	}
	l.finishFlush(target, time.Since(start), nil)
	if err := l.f.Close(); err != nil {
		err = fmt.Errorf("wal: rotate close: %w", err)
		l.latch(err)
		return err
	}
	name := segmentName(l.writeSeq)
	f, err := l.fs.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		err = fmt.Errorf("wal: rotate open: %w", err)
		l.latch(err)
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		err = fmt.Errorf("wal: rotate sync dir: %w", err)
		l.latch(err)
		return err
	}
	l.f, l.segName, l.segBytes = f, name, 0
	l.mu.Lock()
	l.statSegName, l.statSegBytes = name, 0
	l.mu.Unlock()
	return nil
}

// syncer is the goroutine that retires parked appenders: one fsync per
// batch. Waiters that park while a flush is in flight form the next
// batch and are retired without waiting for another kick.
func (l *Log) syncer() {
	defer close(l.done)
	for {
		select {
		case <-l.kick:
			for l.flushOnce() {
			}
		case <-l.stop:
			l.flushOnce()
			return
		}
	}
}

// flushOnce retires one batch: it moves every frame staged at sample
// time into the active segment with a single write, issues one shared
// fsync, and retires the covered waiters. It reports whether any waiter
// was parked (false means the log is drained and the syncer can block).
// The write path is released before the file I/O starts — lock order is
// wmu → smu, so the staged batch is swapped out under wmu and then
// written+fsynced under smu alone: appenders stage the next batch (and
// may even rotate, serialized behind smu) while this one flushes.
func (l *Log) flushOnce() bool {
	l.gatherBatch()
	l.wmu.Lock()
	l.smu.Lock()
	buf := l.drain()
	f := l.f
	l.mu.Lock()
	target := l.written
	n := len(l.waiters)
	lerr := l.err
	l.mu.Unlock()
	l.wmu.Unlock()
	if n == 0 && len(buf) == 0 {
		l.smu.Unlock()
		return false
	}
	start := time.Now()
	err := l.writeAndSync(f, buf, lerr)
	d := time.Since(start)
	if err == nil {
		l.lastSync.Store(int64(d))
	}
	l.finishFlush(target, d, err)
	l.smu.Unlock()
	return true
}

// writeAndSync writes a drained batch and fsyncs the segment, latching
// any failure. Called with smu held. A latched prior error fails the
// flush without touching the file: the segment ends at the last batch
// before the hole, and recovery adjudicates whatever is on disk.
func (l *Log) writeAndSync(f File, buf []byte, lerr error) error {
	if lerr != nil {
		return fmt.Errorf("wal: log failed: %w", lerr)
	}
	if len(buf) > 0 {
		if _, err := f.Write(buf); err != nil {
			// The segment may now hold a torn frame; recovery will cut it.
			err = fmt.Errorf("wal: write: %w", err)
			l.latch(err)
			return err
		}
	}
	if err := f.Sync(); err != nil {
		err = fmt.Errorf("wal: fsync: %w", err)
		l.latch(err)
		return err
	}
	return nil
}

// gatherBatch gives committers acked by the previous flush a moment to
// re-append before this flush samples its target. One scheduler yield is
// always granted; beyond that the budget is a small fraction of the
// observed fsync latency (capped), so slow storage — where a commit that
// misses the batch pays a full extra flush — buys a slightly longer
// gather, while fast storage pays nearly nothing. Under steady load the
// loop exits well before the deadline: as soon as the batch is as large
// as the previous one (the acked committers are all back) or the waiter
// count stops growing.
func (l *Log) gatherBatch() {
	budget := time.Duration(l.lastSync.Load()) / 8
	if budget > 200*time.Microsecond {
		budget = 200 * time.Microsecond
	}
	deadline := l.clk.Now().Add(budget)
	full := l.lastBatch.Load()
	prev := -1
	for {
		runtime.Gosched()
		l.mu.Lock()
		n := len(l.waiters)
		l.mu.Unlock()
		if int64(n) >= full || n == prev || budget <= 0 || l.clk.Now().After(deadline) {
			return
		}
		prev = n
	}
}

// finishFlush publishes the outcome of one fsync issued when the written
// mark was target: on success the durable watermark advances to target
// (never past it — frames written mid-flush wait for the next one) and
// the covered waiters are retired; on failure every parked waiter fails,
// since the log is poisoned and no later fsync will cover them.
func (l *Log) finishFlush(target uint64, d time.Duration, err error) {
	l.mu.Lock()
	var batch []waiter
	if err != nil {
		batch, l.waiters = l.waiters, nil
	} else {
		if target > l.durable {
			l.durable = target
			for _, ch := range l.watchers {
				select {
				case ch <- struct{}{}:
				default: // already pending; the watcher will see the new mark
				}
			}
		}
		i := 0
		for i < len(l.waiters) && l.waiters[i].lsn < l.durable {
			i++
		}
		batch, l.waiters = l.waiters[:i:i], l.waiters[i:]
	}
	l.mu.Unlock()
	if len(batch) > 0 {
		if err == nil {
			l.lastBatch.Store(int64(len(batch)))
		}
		l.met.ObserveFsync(d, len(batch))
	}
	for _, w := range batch {
		w.ch <- err
	}
}

// syncNow drains the staged frames and fsyncs the active segment
// immediately and retires the covered waiters.
func (l *Log) syncNow() error {
	l.wmu.Lock()
	l.smu.Lock()
	buf := l.drain()
	f := l.f
	l.mu.Lock()
	target := l.written
	lerr := l.err
	l.mu.Unlock()
	l.wmu.Unlock()
	start := time.Now()
	err := l.writeAndSync(f, buf, lerr)
	l.finishFlush(target, time.Since(start), err)
	l.smu.Unlock()
	return err
}

// Sync forces any buffered records to stable storage now. If the log has latched a fatal error — a
// failed append poisoned it — Sync reports that error even when this
// flush itself succeeds: state past the torn frame is gone, and a drain
// that relied on it must fail loudly, not report a clean shutdown.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	l.mu.Unlock()
	err := l.syncNow()
	l.mu.Lock()
	if l.err != nil {
		err = fmt.Errorf("wal: log failed: %w", l.err)
	}
	l.mu.Unlock()
	return err
}

// Close flushes outstanding records, stops the syncer and closes the
// active segment. The log is unusable afterwards. Like Sync, Close
// reports a previously latched fatal error rather than a clean shutdown.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	reserved := l.nextLSN
	l.mu.Unlock()
	// Drain the write path: every LSN reserved before closed was set has
	// passed through writeFrame once writeSeq reaches the mark.
	l.wmu.Lock()
	for l.writeSeq != reserved {
		l.wcond.Wait()
	}
	l.wmu.Unlock()
	close(l.stop)
	<-l.done
	err := l.syncNow()
	l.smu.Lock()
	cerr := l.f.Close()
	l.smu.Unlock()
	if err == nil {
		err = cerr
	}
	l.mu.Lock()
	if l.err != nil {
		err = fmt.Errorf("wal: log failed: %w", l.err)
	}
	l.mu.Unlock()
	return err
}

// Stats reports the log's position.
type Stats struct {
	NextLSN       uint64 // LSN the next append will get
	WrittenLSN    uint64 // every LSN below this has passed the write path (staged or written)
	DurableLSN    uint64 // every LSN below this is covered by an fsync
	CheckpointLSN uint64 // redo low-water mark (0 = no checkpoint)
	Segment       string // active segment file name
	SegmentBytes  int64  // bytes in the active segment
}

// Stats returns the current log position. It takes only the state mutex,
// so it never blocks behind an in-flight write or fsync.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		NextLSN:       l.nextLSN,
		WrittenLSN:    l.written,
		DurableLSN:    l.durable,
		CheckpointLSN: l.ckptLSN,
		Segment:       l.statSegName,
		SegmentBytes:  l.statSegBytes,
	}
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// FS returns the backing file system (the replication shipper tails the
// directory through the same FS the log writes it with).
func (l *Log) FS() FS { return l.fs }

// DurableLSN returns the stable-storage high-water mark: every record
// with a smaller LSN has been covered by a successful fsync. A
// replication leader ships only records below this mark, so a follower
// can never hold a record its leader might lose in a crash.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Watch registers a coalescing notification channel: it receives (at
// least) one send whenever the durable LSN advances. Pair with Unwatch.
func (l *Log) Watch() <-chan struct{} {
	ch := make(chan struct{}, 1)
	l.mu.Lock()
	l.watchers = append(l.watchers, ch)
	l.mu.Unlock()
	return ch
}

// Unwatch deregisters a channel returned by Watch.
func (l *Log) Unwatch(ch <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, w := range l.watchers {
		if w == ch {
			l.watchers = append(l.watchers[:i], l.watchers[i+1:]...)
			return
		}
	}
}

// probeWritable creates, writes and removes a scratch file so an
// unwritable data directory fails Open with an explicit error instead of
// failing the first commit.
func probeWritable(fs FS, dir string) error {
	path := filepath.Join(dir, ".wal-probe.tmp")
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, werr := f.Write([]byte("probe\n")); werr != nil {
		f.Close()
		fs.Remove(path)
		return werr
	}
	if cerr := f.Close(); cerr != nil {
		fs.Remove(path)
		return cerr
	}
	return fs.Remove(path)
}

// Package wal is the durability subsystem: a segmented, CRC32C-checked,
// append-only redo log of committed top-level transactions, with group
// commit, checkpoints, and a crash-recovery path whose result is not
// merely plausible but machine-checked — the recovered history is
// reconstructed as a formal schedule and replayed through the Theorem-34
// serial-correctness checker (internal/checker).
//
// The protocol is write-ahead logging at the top level of the
// transaction tree, split at two points. A top-level commit *stages* its
// redo record — LSN taken, frame in the write buffer — before the lock
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
// The write path says each thing once. There is one critical section in:
// a record's body is encoded outside every lock, and then, under the
// write mutex alone, its stager waits at the byte budget, takes the next
// LSN, seals the frame with it, rotates the segment if the frame does not
// fit, and appends the frame to the write buffer — so LSN order is staging
// order because both are the same section, and a stager waits only on the
// budget, never on another stager's progress. And there is one flush out:
// the syncer goroutine, Sync, Close, a rotation's seal and an installed
// snapshot's seal all run the same body — swap the staged batch out for the previous
// one's buffer, note the next LSN as the target, one write, one fsync,
// advance the durable watermark — and differ only in whether the write
// mutex is released before the file I/O (the first three: stagers fill
// the next batch while this one is at the device) or kept (the two seals,
// which swap the segment handle afterwards). The watermark a flush
// publishes is the next LSN when it was *issued*: frames staged mid-flush
// wait for the next one. A write or fsync failure latches the log: every
// parked and later ticket fails, nothing is staged after the hole, and
// recovery adjudicates what is on disk.
//
// A ticket is answered by the durable mark, not by a message of its own:
// it is its record's LSN, and Wait returns once the mark passes it — or
// returns the latched fault if the log latches first. The mark is
// prefix-closed, so that is the whole answer, and asking twice gets the
// same one. Group commit falls out: one fsync moves the mark past every
// record it covers, so concurrent commits share the flush — writers of
// one hot object included, since the next one is granted as soon as the
// previous one has staged. Staging is bounded: a stager waits while the
// write buffer holds more than a quarter segment of unflushed bytes, so a
// stalled device stalls its stagers instead of growing the heap. The
// checkpoint gate is held from a record's stage through its apply
// callback — the budget wait included, that is the back-pressure — and
// never while a ticket waits for its fsync, by any entry point.
// A checkpoint takes the gate's writer lock, which excludes staging, only
// to capture: it notes the next LSN and holds the committed states there
// (an O(1) snapshot-store hold), so it is exactly equivalent to the redo of
// every record below its LSN. It then waits, with commits flowing, until
// those records are durable, writes its file beside the log, and removes
// only the segments wholly below its LSN; it never seals, rotates or
// removes the active segment. Once the segments sealed since the last
// checkpoint outgrow max(4 × SegmentBytes, the last checkpoint file), a
// log given a capture (AutoCheckpoint) checkpoints itself.
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

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	dir string
	fs  FS
	met *obs.Metrics
	clk clock.Clock

	segLimit int64
	// wbufMax bounds the staged-but-unflushed bytes: enqueue waits while
	// wbuf holds more (a quarter of segLimit).
	wbufMax int

	// ckmu serializes checkpoints, from capture to file removal.
	ckmu sync.Mutex

	// gate orders staging against checkpoints: every stage holds a read
	// lock from its enqueue through its apply callback — never while its
	// ticket waits for the fsync; a checkpoint's capture takes the write
	// lock, so when it runs every staged record has been applied and no
	// commit is between the two.
	gate sync.RWMutex

	// wmu is the way in: one critical section per record takes the next
	// LSN, seals the frame and appends it to wbuf (enqueue). The segment
	// write happens on the way out (flush), which swaps the whole staged
	// batch out under wmu and — except for a rotation's or an installed
	// snapshot's seal — releases it before the file I/O.
	wmu      sync.Mutex
	wroom    *sync.Cond // broadcast when wbuf is swapped out: stagers held at the budget
	wbuf     []byte     // frames staged but not yet written to the segment
	f        File       // active segment
	segName  string     // file name of the active segment
	segBytes int64      // bytes staged+written to the active segment
	closed   bool

	// smu is the way out: it serializes batch writes, fsyncs and
	// file-handle swaps (rotation, snapshot install) against each other.
	// Stagers do not take it except to rotate, so staging proceeds while a
	// flush is in flight. Lock order: ckmu → gate → wmu → smu → mu.
	smu   sync.Mutex
	spare []byte // the last written batch's buffer, the next wbuf (see drain)

	// mu guards the logical state below. Critical sections are short: mu
	// is never held across an encode, a write, or an fsync. nextLSN is
	// written with wmu and mu both held, so either one suffices to read it.
	mu           sync.Mutex
	landed       *sync.Cond  // broadcast when durable advances or the log latches: parked tickets
	nextLSN      uint64      // LSN the next staged record gets
	durable      uint64      // every LSN below this is covered by an fsync
	ckptLSN      uint64      // next LSN after the newest checkpoint (redo low-water)
	ckptBytes    int64       // size of the newest checkpoint file
	uncovered    int64       // bytes of the sealed segments no checkpoint covers
	sealedSegs   []sealedSeg // those segments, in LSN order
	auto         Capture     // the capture of the checkpoints the log takes by itself
	autoRunning  bool        // an automatic checkpoint's goroutine is running
	statSegName  string      // mirror of segName for Stats
	statSegBytes int64       // mirror of segBytes for Stats
	watchers     []chan struct{}
	err          error // latched fatal error: log is read-only from here on

	// lastSync is the duration of the most recent batch fsync, in
	// nanoseconds, and lastBatch the number of records it retired: the
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
		nextLSN:  rec.NextLSN,
		ckptLSN:  rec.CheckpointLSN,
		durable:  rec.NextLSN, // the recovered prefix is on stable storage
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.wroom = sync.NewCond(&l.wmu)
	l.landed = sync.NewCond(&l.mu)
	if rec.Checkpoint != nil {
		l.ckptBytes, _ = fs.Size(filepath.Join(dir, checkpointName(rec.CheckpointLSN)))
	}
	// The redo a restart just paid counts toward the next checkpoint.
	for i := 1; i < len(rec.segments); i++ { // all but the tail segment
		end, _ := parseLSN(rec.segments[i].Name, "wal-", ".seg")
		l.sealed(rec.segments[i-1].Size, end)
	}
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

// Ticket is a staged record's claim on the durable mark: its LSN. Wait
// may be called any number of times, and gives the same answer each.
type Ticket struct {
	log *Log
	lsn uint64
}

// Wait parks until the ticket's record is durable — covered by a batch
// fsync, a rotation seal or an installed snapshot's seal — and returns nil, or returns
// the fault that latched the log first: the record may or may not have
// reached the disk, and only recovery can say.
func (t Ticket) Wait() error {
	l := t.log
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable <= t.lsn {
		if l.err != nil {
			return l.err
		}
		l.landed.Wait()
	}
	return nil
}

// Stage gives r the next LSN, stages its frame and runs apply with that
// LSN — all while holding the checkpoint gate, so a concurrent Checkpoint
// can never observe a state whose last commit is not yet in the log (or
// vice versa) — and returns without waiting for the device. A stage error
// means r was not logged and apply did not run; apply's own error is
// returned as-is. The record is durable no later than any record staged
// after it: a caller that does not Wait is covered by the next one that
// does, and by Sync, Checkpoint and Close.
//
// The gate is shared (stagers hold read locks), so disjoint commits
// release their locks and record their events in parallel.
func (l *Log) Stage(r Record, apply func(lsn uint64) error) (Ticket, error) {
	l.gate.RLock()
	defer l.gate.RUnlock()
	lsn, err := l.enqueue(r, false)
	if err != nil {
		return Ticket{}, err
	}
	if apply != nil {
		if err := apply(lsn); err != nil {
			return Ticket{}, err
		}
	}
	return Ticket{l, lsn}, nil
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

// AppendBatch stages a contiguous run of already-numbered records (a
// replication batch) and waits for one fsync to cover them all. Unlike
// Stage, the records keep the LSNs they carry — they continue the
// leader's numbering — and a record whose LSN does not equal the log's
// next LSN is refused, so a follower's log is always an exact LSN prefix
// of its leader's. On an error partway, the already-staged prefix
// remains valid (it is contiguous); the caller resynchronises by asking
// the leader to resume from Stats().NextLSN.
func (l *Log) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	var last Ticket
	l.gate.RLock()
	for i := range recs {
		lsn, err := l.enqueue(recs[i], true)
		if err != nil {
			l.gate.RUnlock()
			return err
		}
		last = Ticket{l, lsn}
	}
	l.gate.RUnlock()
	// The durable mark is prefix-closed, so the last record's ticket
	// covers the whole run.
	return last.Wait()
}

// enqueue is the one way into the log. The expensive work — encoding the
// record's body — happens outside every lock, in a pooled buffer with room
// in front for what needs the LSN (so an unencodable record fails without
// touching the sequence). The rest is one critical section under wmu:
// wait at the byte budget, take the next LSN (or, with strict set, check
// that the one r carries is it), seal the frame with it — twenty digits
// and a CRC32C written in place —, rotate if the frame does not fit,
// append it to wbuf, and advance the sequence. LSN
// order is staging order because both are this section; an enqueue that
// fails, a failed rotation included, consumes no LSN.
//
// The one thing that blocks here is the budget: while wbuf holds more than
// wbufMax the stager waits for a flush to swap the buffer out (every
// staged frame has kicked the syncer, so one is coming). The check and
// the append are one section, so wbuf never exceeds the budget plus one
// frame however many stagers wait and however long an fsync stalls.
func (l *Log) enqueue(r Record, strict bool) (uint64, error) {
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
		return 0, err
	}

	l.wmu.Lock()
	defer l.wmu.Unlock()
	for len(l.wbuf) > l.wbufMax {
		l.wroom.Wait()
	}
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	// A batch before this one failed: never stage a frame after a hole.
	if err := l.failed(); err != nil {
		return 0, err
	}
	lsn := l.nextLSN
	if strict && r.LSN != lsn {
		return 0, fmt.Errorf("wal: batch LSN gap: got %d, want %d", r.LSN, lsn)
	}
	buf, start := sealFrame(buf, frameRoom, lsn)
	frame := buf[start:]
	if l.segBytes > 0 && l.segBytes+int64(len(frame)) > l.segLimit {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	l.wbuf = append(l.wbuf, frame...)
	l.segBytes += int64(len(frame))
	l.met.WalAppends.Inc()
	l.mu.Lock()
	l.nextLSN = lsn + 1
	l.statSegBytes = l.segBytes
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return lsn, nil
}

// frameBufs recycles enqueue's encode buffers; one that a large record
// grew past maxPooledFrame is dropped rather than pinned.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 64 << 10

// drain swaps the staged batch out of wbuf, for the previous batch's
// buffer, and wakes the stagers held at the byte budget. Called with wmu
// and smu held.
func (l *Log) drain() []byte {
	buf := l.wbuf
	l.wbuf, l.spare = l.spare[:0], nil
	l.wroom.Broadcast()
	return buf
}

// latch records the first fatal error — the log is read-only from here
// on — and returns err.
func (l *Log) latch(err error) error {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
		l.landed.Broadcast()
	}
	l.mu.Unlock()
	return err
}

// failed returns the latched fault, wrapped, or nil.
func (l *Log) failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return fmt.Errorf("wal: log failed: %w", l.err)
	}
	return nil
}

// flush is the one way out of the write buffer: swap the staged batch
// out, take the next LSN as the target, move the batch into the active
// segment with a single write, fsync, and publish the outcome
// (advance) — so a batch of n commits costs one write syscall plus one
// fsync no matter how large n is. Called with wmu and smu held; returns
// with smu held. Its callers differ only in unlock, whether wmu is
// released before the file I/O: the syncer, Sync and Close release it, so
// stagers fill the next batch (and may even rotate, serialized behind smu)
// while this one is at the device; a rotation under its stager and a
// cutover under its snapshot install keep it. A write or fsync failure latches
// the log, and a latched log fails every flush without touching the file:
// the segment ends at the last batch before the hole, and recovery
// adjudicates whatever is on disk.
func (l *Log) flush(unlock bool) error {
	buf := l.drain()
	f, target := l.f, l.nextLSN
	if unlock {
		l.wmu.Unlock()
	}
	start := time.Now()
	err := l.failed()
	if err == nil && len(buf) > 0 {
		if _, werr := f.Write(buf); werr != nil {
			// The segment may now hold a torn frame; recovery will cut it.
			err = l.latch(fmt.Errorf("wal: write: %w", werr))
		}
	}
	if err == nil {
		if serr := f.Sync(); serr != nil {
			err = l.latch(fmt.Errorf("wal: fsync: %w", serr))
		}
	}
	// The file has its copy: the buffer is the next wbuf, unless a burst
	// grew it past what a batch at the byte budget needs.
	if cap(buf) <= 2*l.wbufMax {
		l.spare = buf
	}
	// A failed flush retires nothing: latch answered the tickets.
	if err == nil {
		d := time.Since(start)
		l.lastSync.Store(int64(d))
		if n := l.advance(target); n > 0 {
			l.lastBatch.Store(int64(n))
			l.met.ObserveFsync(d, int(n))
		}
	}
	return err
}

// seal flushes and closes the active segment. Called with wmu and smu
// held; the caller opens the next segment.
func (l *Log) seal() error {
	if err := l.flush(false); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return l.latch(fmt.Errorf("wal: close segment: %w", err))
	}
	return nil
}

// openSegment makes the segment named after lsn — its first record — the
// active one. Called with wmu and smu held, after seal.
func (l *Log) openSegment(lsn uint64) error {
	name := segmentName(lsn)
	f, err := l.fs.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return l.latch(fmt.Errorf("wal: open segment: %w", err))
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return l.latch(fmt.Errorf("wal: sync dir: %w", err))
	}
	l.f, l.segName, l.segBytes = f, name, 0
	l.mu.Lock()
	l.statSegName, l.statSegBytes = name, 0
	l.mu.Unlock()
	return nil
}

// rotate seals the active segment and opens a fresh one for the frame its
// stager is about to append. Called with wmu held; takes smu so the
// handle swap cannot race an in-flight batch fsync.
func (l *Log) rotate() error {
	l.smu.Lock()
	defer l.smu.Unlock()
	if err := l.seal(); err != nil {
		return err
	}
	l.sealed(l.segBytes, l.nextLSN)
	return l.openSegment(l.nextLSN)
}

// syncer is the goroutine that moves the durable mark: one fsync per
// batch. Records staged while a flush is in flight form the next batch
// and are retired without waiting for another kick.
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

// flushOnce retires one batch and reports whether there was one (false
// means the log is drained and the syncer can block). With wmu and smu
// held no flush is in flight, so every record the mark has not passed is
// in wbuf; on a latched log one more drain wakes the stagers held at the
// budget.
func (l *Log) flushOnce() bool {
	l.gatherBatch()
	l.wmu.Lock()
	l.smu.Lock()
	defer l.smu.Unlock()
	if len(l.wbuf) == 0 {
		l.wmu.Unlock()
		return false
	}
	l.flush(true)
	return true
}

// gatherBatch gives committers acked by the previous flush a moment to
// re-append before this flush samples its target. One scheduler yield is
// always granted; beyond that the budget is a small fraction of the
// observed fsync latency (capped), so slow storage — where a commit that
// misses the batch pays a full extra flush — buys a slightly longer
// gather, while fast storage pays nearly nothing. Under steady load the
// loop exits well before the deadline: as soon as the batch is as large
// as the previous one (the acked committers are all back) or the count of
// records the durable mark has not passed stops growing.
func (l *Log) gatherBatch() {
	budget := time.Duration(l.lastSync.Load()) / 8
	if budget > 200*time.Microsecond {
		budget = 200 * time.Microsecond
	}
	deadline := l.clk.Now().Add(budget)
	full := l.lastBatch.Load()
	prev := int64(-1)
	for {
		runtime.Gosched()
		l.mu.Lock()
		n := int64(l.nextLSN - l.durable)
		l.mu.Unlock()
		if n >= full || n == prev || budget <= 0 || l.clk.Now().After(deadline) {
			return
		}
		prev = n
	}
}

// advance moves the durable watermark up to target (a flush's: the next
// LSN when it was issued, so frames staged mid-flush wait for the next),
// answering every ticket below it, and returns how many LSNs it passed.
func (l *Log) advance(target uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := target - l.durable
	if n > 0 {
		l.durable = target
		l.landed.Broadcast()
		for _, ch := range l.watchers {
			select {
			case ch <- struct{}{}:
			default: // already pending; the watcher will see the new mark
			}
		}
	}
	return n
}

// Sync forces every staged record to stable storage now. On a log that
// has latched a fault it reports the fault: state past the torn frame is
// gone, and a drain that relied on it must fail loudly, not report a
// clean shutdown.
func (l *Log) Sync() error {
	l.wmu.Lock()
	if l.closed {
		l.wmu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	l.smu.Lock()
	defer l.smu.Unlock()
	return l.flush(true)
}

// Close flushes outstanding records, stops the syncer and closes the
// active segment. The log is unusable afterwards. Like Sync, Close
// reports a latched fault rather than a clean shutdown.
func (l *Log) Close() error {
	// A checkpoint in progress finishes first (it waits on the syncer);
	// one that starts after this fails its capture. closed is set with wmu
	// held, so no stager is between its check and its append: whatever was
	// staged is in wbuf for the flush below.
	l.ckmu.Lock()
	l.wmu.Lock()
	already := l.closed
	l.closed = true
	l.wmu.Unlock()
	l.ckmu.Unlock()
	if already {
		return nil
	}
	close(l.stop)
	<-l.done
	l.wmu.Lock()
	l.smu.Lock()
	defer l.smu.Unlock()
	err := l.flush(true)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats reports the log's position.
type Stats struct {
	NextLSN       uint64 // LSN the next staged record gets: every LSN below it is in the write buffer or its segment
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

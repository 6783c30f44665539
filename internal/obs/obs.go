// Package obs is the runtime observability layer: allocation-free atomic
// counters and gauges, lock-free latency histograms with fixed log-scale
// buckets, and a bounded ring-buffer event tracer keyed by the formal
// event vocabulary of internal/event.
//
// Where Manager.Verify machine-checks a *recorded* schedule after the
// fact (Theorem 34 replayed offline), this package makes the same events
// visible *live*: per-operation and per-transaction latencies, lock-wait
// durations, deadlock-victim counts by cause, and a dumpable trace of the
// most recent CREATE/REQUEST_COMMIT/COMMIT/ABORT/lock-acquire/lock-wait
// events — so a production incident can be read off a running server and
// correlated against the formal replay.
//
// Everything here is stdlib-only and cheap enough to leave on: counters
// and histograms are single atomic adds, gauges are atomic int64s, and
// the tracer is a fixed-capacity ring behind one short mutex (and is
// entirely optional — a nil *Tracer records nothing). A component handed
// no registry normalises it once, where it enters, with [Or].
//
// Every number the server publishes is declared here once: the live
// registry ([Metrics]), its point-in-time copy ([Snapshot]) and the
// counter blocks ([LockStats], [ServerCounters]) carry the JSON keys the
// METRICS verb answers with, so internal/wire embeds these structs in
// one payload and both ends of a connection decode into the same types.
// The three blocks share one JSON object, so no key may be declared in
// two of them.
package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ---- counters and gauges ----

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous level (e.g. queue depth): it goes up
// and down.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// ---- histograms ----

// NumBuckets is the fixed bucket count of every Histogram. Bucket 0
// holds non-positive durations; bucket i (1 ≤ i < NumBuckets-1) holds
// durations in [2^(i-1), 2^i) nanoseconds; the last bucket holds
// everything from 2^(NumBuckets-2) ns (≈ 4.6 min) up. The log-2 scale
// gives ~±50% resolution over eleven decades with 40 fixed slots and an
// index computable with one bit-length instruction.
const NumBuckets = 40

// Histogram is a lock-free latency histogram: fixed log-scale buckets,
// running sum, and a high-water mark, all maintained with single atomic
// operations so concurrent observers never contend on a lock. The zero
// value is ready to use.
type Histogram struct {
	sum     atomic.Int64 // total observed nanoseconds
	max     atomic.Int64 // largest single observation, ns
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf returns the bucket index for a duration of ns nanoseconds.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) // 2^(b-1) <= ns < 2^b
	if b > NumBuckets-1 {
		b = NumBuckets - 1
	}
	return b
}

// bucketUpper returns the inclusive upper bound (ns) of bucket i; the
// overflow bucket reports the largest representable duration.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return int64(^uint64(0) >> 1)
	}
	return 1<<uint(i) - 1
}

// Observe records one duration. Nil-safe; safe for concurrent use.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketOf(ns)].Add(1)
}

// Count returns the number of observations (the sum of all buckets).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Snapshot captures the histogram. Bucket reads are individually atomic;
// a snapshot taken while observers run may be mid-flight by a few
// observations, but at quiescence it is exact — which is what the
// reconciliation tests rely on.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	for i := range h.buckets {
		b := h.buckets[i].Load()
		s.Buckets[i] = b
		s.Count += b
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, with quantile
// estimation. It crosses the wire as histJSON.
type HistSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
	Buckets [NumBuckets]uint64
}

// histJSON is a HistSnapshot on the wire: the totals, quantile estimates
// for a reader that wants only numbers, and the buckets (trailing zeros
// trimmed) a decoder rebuilds the snapshot from.
type histJSON struct {
	Count   uint64   `json:"count"`
	SumNS   int64    `json:"sum_ns"`
	P50NS   int64    `json:"p50_ns"`
	P90NS   int64    `json:"p90_ns"`
	P99NS   int64    `json:"p99_ns"`
	MaxNS   int64    `json:"max_ns"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

func (s HistSnapshot) MarshalJSON() ([]byte, error) {
	n := NumBuckets
	for n > 0 && s.Buckets[n-1] == 0 {
		n--
	}
	return json.Marshal(histJSON{s.Count, int64(s.Sum), int64(s.Quantile(50)), int64(s.Quantile(90)),
		int64(s.Quantile(99)), int64(s.Max), s.Buckets[:n]})
}

// UnmarshalJSON rebuilds the snapshot from its totals and buckets; the
// quantile members are derived and ignored. A payload without buckets
// (a server older than them) keeps its totals and estimates every
// quantile as Max.
func (s *HistSnapshot) UnmarshalJSON(data []byte) error {
	var j histJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Buckets) > NumBuckets {
		return fmt.Errorf("obs: histogram with %d buckets, want at most %d", len(j.Buckets), NumBuckets)
	}
	*s = HistSnapshot{Count: j.Count, Sum: time.Duration(j.SumNS), Max: time.Duration(j.MaxNS)}
	copy(s.Buckets[:], j.Buckets)
	return nil
}

// Quantile estimates the p'th percentile (p in [0,100]) as the upper
// bound of the bucket containing that rank, clamped to the observed
// maximum — so the estimate is conservative (never below the true value
// by more than the bucket width) and Quantile(100) == Max. Returns 0
// when the histogram is empty.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(p / 100 * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= rank {
			q := time.Duration(bucketUpper(i))
			if q > s.Max {
				q = s.Max
			}
			return q
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean observation, or 0 when empty.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// ---- ring-buffer event tracer ----

// Trace kinds beyond the formal vocabulary: lock acquisition outcomes of
// the runtime lock manager. All other entries use the exact strings of
// internal/event's Kind (CREATE, REQUEST_COMMIT, COMMIT, ABORT, ...) so
// a dumped trace lines up 1:1 with a recorded schedule's notation.
const (
	KindLockWait    = "LOCK_WAIT"    // an acquisition blocked (Dur = 0 at entry)
	KindLockAcquire = "LOCK_ACQUIRE" // a blocked acquisition was granted (Dur = wait time)
)

// TraceEntry is one ring-buffer record, in the ring and on the wire
// (METRICS with Dump).
type TraceEntry struct {
	Seq    uint64        `json:"seq"`              // global sequence number (monotonic, never reused)
	At     int64         `json:"at_unix_ns"`       // wall-clock time of the event, Unix nanoseconds
	Kind   string        `json:"kind"`             // event.Kind string or KindLock*
	T      string        `json:"t"`                // transaction name in the paper's tree notation
	Object string        `json:"obj,omitempty"`    // object name for access/lock events, else ""
	Dur    time.Duration `json:"dur_ns,omitempty"` // latency attached to the event (op, tx, or wait time)
}

// String renders the entry as one line of a trace dump.
func (e TraceEntry) String() string {
	line := fmt.Sprintf("#%-8d %s %-14s %s", e.Seq, time.Unix(0, e.At).Format("15:04:05.000000"), e.Kind, e.T)
	if e.Object != "" {
		line += " obj=" + e.Object
	}
	if e.Dur != 0 {
		line += " dur=" + e.Dur.String()
	}
	return line
}

// Tracer is a fixed-capacity ring buffer of the most recent trace
// entries. Writes overwrite the oldest entry once the ring is full, so
// memory is bounded regardless of run length; Dump returns the surviving
// window oldest-first, and the Seq of its last entry is the total ever
// traced. A nil *Tracer records nothing and dumps empty — tracing is
// opt-in.
type Tracer struct {
	mu   sync.Mutex
	seq  uint64
	buf  []TraceEntry
	next int
	full bool
}

// NewTracer returns a Tracer keeping the last capacity entries
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]TraceEntry, capacity)}
}

// Trace appends one entry, evicting the oldest when full. Nil-safe. The
// entry keeps a copy of t, not t: a transaction's name lives inside the
// transaction, and the ring must not keep that alive.
func (tr *Tracer) Trace(kind, t, object string, dur time.Duration) {
	if tr == nil {
		return
	}
	t = strings.Clone(t)
	now := time.Now().UnixNano()
	tr.mu.Lock()
	tr.seq++
	tr.buf[tr.next] = TraceEntry{Seq: tr.seq, At: now, Kind: kind, T: t, Object: object, Dur: dur}
	tr.next++
	if tr.next == len(tr.buf) {
		tr.next, tr.full = 0, true
	}
	tr.mu.Unlock()
}

// Dump returns a copy of the retained entries, oldest first. Nil tracers
// dump nil.
func (tr *Tracer) Dump() []TraceEntry {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.full {
		return append([]TraceEntry(nil), tr.buf[:tr.next]...)
	}
	out := make([]TraceEntry, 0, len(tr.buf))
	out = append(out, tr.buf[tr.next:]...)
	return append(out, tr.buf[:tr.next]...)
}

// ---- the aggregate metric set ----

// Metrics is the live metric set threaded through the nestedtx stack: the
// runtime (Manager/Tx) records operation and transaction latencies and
// outcomes, the lock manager records waiting and victim selection, and
// the server publishes a [Snapshot] of everything through the METRICS
// verb. Recorders touch the fields directly (met.WalAppends.Inc()); the
// methods below exist only where one event moves several fields that
// must agree. A *Metrics is never nil past the constructor it entered
// through (see [Or]).
//
// Adding a metric: one field here, its tagged twin in Snapshot with the
// line in [Metrics.Snapshot] that copies it, and one line where
// txmetrics renders it. The wire, the server and the client need no edit.
type Metrics struct {
	// OpLatency is the latency of each successful access (Tx.Do):
	// lock acquisition (including any wait) plus operation application.
	OpLatency Histogram
	// TxLatency is the end-to-end latency of each finished top-level
	// transaction, commit or abort.
	TxLatency Histogram
	// LockWait is the duration of each blocked lock acquisition, from
	// first block to grant, victimhood or cancellation. Acquisitions
	// granted without waiting are not observed, so
	//   LockWait.Count == LockStats.Waits + VictimsDeadlock + VictimsCancelled
	// at quiescence.
	LockWait Histogram

	TxCommits Counter // finished top-level transactions that committed
	TxAborts  Counter // finished top-level transactions that aborted

	// Victim counts by cause: a waiter that left its wait queue without
	// being granted, split by why. Their sum is the total victim count.
	VictimsDeadlock  Counter // chosen as deadlock victim (== LockStats.Deadlocks)
	VictimsCancelled Counter // cancelled while blocked (enclosing abort)

	QueuedWaiters    Gauge // currently blocked lock acquisitions
	ContendedObjects Gauge // objects with a non-empty wait queue

	// ShardQueued splits QueuedWaiters by lock shard, sized by the lock
	// manager at construction (nil until then). The per-shard gauges
	// expose contention skew — a hot shard shows up as one outlier entry
	// while the aggregate gauge looks calm.
	ShardQueued []Gauge

	// FsyncLatency is the duration of each WAL fsync (group commit
	// flushes a batch of appended records with one Sync).
	FsyncLatency Histogram

	WalAppends Counter // records appended to the WAL
	WalFsyncs  Counter // successful WAL flushes, one fsync each
	// WalCheckpoints counts completed checkpoints; WalCheckpointLSN is
	// the next LSN after the newest checkpoint (the redo low-water mark),
	// also set, without a count, when boot recovers one.
	WalCheckpoints   Counter
	WalCheckpointLSN Gauge
	// WalMaxBatch is the largest number of records retired by a single
	// fsync — the group-commit batching high-water mark. At quiescence,
	// unless the log latched (its last staged records are never retired),
	//   WalAppends == Σ batch sizes over WalFsyncs
	// so fsyncs/commit == WalFsyncs / WalAppends.
	WalMaxBatch Gauge

	// ShipLatency is the replication leader's batch round trip: from
	// writing a batch frame to receiving the ack that covers its last
	// record — the time an acked-on-leader commit needs to become
	// durable on a follower.
	ShipLatency Histogram

	// Leader-side replication counters: batches and records pushed
	// (heartbeats excluded), acks read back, connected followers.
	ReplBatches        Counter
	ReplRecordsShipped Counter
	ReplAcks           Counter
	ReplFollowers      Gauge

	// Follower-side replication counters: batches and records appended
	// to the local WAL and applied to the served states.
	ReplBatchesApplied Counter
	ReplRecordsApplied Counter

	// Replication lag, in both the records and the time dimension
	// (ReplLag holds nanoseconds): on a leader the worst connected
	// follower (records behind the durable mark / time since that
	// follower last made progress), on a follower its own position
	// against the leader's durable mark.
	ReplLagRecords Gauge
	ReplLag        Gauge

	// SnapReadLatency is the latency of each snapshot read: version
	// lookup plus operation application, never a lock wait.
	SnapReadLatency Histogram

	// Snapshot-transaction counters: read-only transactions begun,
	// reads served from pinned versions, and top-level commits published
	// into the snapshot store. SnapPinned is the number of currently
	// live snapshot pins (what bounds version-chain trimming).
	SnapTxs       Counter
	SnapReads     Counter
	SnapPublishes Counter
	SnapPinned    Gauge

	// Tracer, when non-nil, receives one entry per transaction
	// lifecycle event and lock wait/acquire.
	Tracer *Tracer
}

// Or returns m, or a registry of its own that nobody reads when m is
// nil — the idiom for "injected registry, defaulting to none" at the
// constructors that accept one.
func Or(m *Metrics) *Metrics {
	if m == nil {
		return new(Metrics)
	}
	return m
}

// Trace records one tracer entry if tracing is enabled.
func (m *Metrics) Trace(kind, t, object string, dur time.Duration) {
	m.Tracer.Trace(kind, t, object, dur)
}

// ObserveTx records one finished top-level transaction.
func (m *Metrics) ObserveTx(d time.Duration, committed bool) {
	m.TxLatency.Observe(d)
	if committed {
		m.TxCommits.Inc()
	} else {
		m.TxAborts.Inc()
	}
}

// AddShardQueued moves shard's queued-waiters gauge; a shard the gauges
// were not sized for is ignored.
func (m *Metrics) AddShardQueued(shard int, delta int64) {
	if shard >= 0 && shard < len(m.ShardQueued) {
		m.ShardQueued[shard].Add(delta)
	}
}

// ObserveFsync records one successful WAL flush retiring batch records; a
// failed one retires nothing and is not observed.
func (m *Metrics) ObserveFsync(d time.Duration, batch int) {
	m.FsyncLatency.Observe(d)
	m.WalFsyncs.Inc()
	// The log's flushes — syncer, Sync, Close and both seals — hold one
	// mutex, so a plain read-compare-write keeps the high-water mark exact.
	if int64(batch) > m.WalMaxBatch.Load() {
		m.WalMaxBatch.Set(int64(batch))
	}
}

// ObserveCheckpoint records one completed checkpoint with its next LSN.
func (m *Metrics) ObserveCheckpoint(nextLSN uint64) {
	m.WalCheckpoints.Inc()
	m.WalCheckpointLSN.Set(int64(nextLSN))
}

// ObserveReplBatch counts one shipped replication batch of n records.
func (m *Metrics) ObserveReplBatch(n int) {
	m.ReplBatches.Inc()
	m.ReplRecordsShipped.Add(uint64(n))
}

// ObserveReplAck counts one received ack; d, when positive, is the
// round trip of the batch the ack covers.
func (m *Metrics) ObserveReplAck(d time.Duration) {
	m.ReplAcks.Inc()
	if d > 0 {
		m.ShipLatency.Observe(d)
	}
}

// ObserveReplApply counts one applied replication batch of n records.
func (m *Metrics) ObserveReplApply(n int) {
	m.ReplBatchesApplied.Inc()
	m.ReplRecordsApplied.Add(uint64(n))
}

// SetReplLag publishes the current replication lag in both dimensions.
func (m *Metrics) SetReplLag(records uint64, behind time.Duration) {
	m.ReplLagRecords.Set(int64(records))
	m.ReplLag.Set(int64(behind))
}

// ObserveSnapRead records one snapshot read.
func (m *Metrics) ObserveSnapRead(d time.Duration) {
	m.SnapReadLatency.Observe(d)
	m.SnapReads.Inc()
}

// SnapBegin records a read-only snapshot transaction starting; its end
// is SnapPinned.Add(-1).
func (m *Metrics) SnapBegin() {
	m.SnapTxs.Inc()
	m.SnapPinned.Add(1)
}

// ---- what the server publishes ----

// Snapshot is a point-in-time copy of a Metrics set (histograms as
// HistSnapshots, counters and gauges as plain numbers): the registry
// block of the METRICS payload. The blocks after the
// contention gauges are all-zero, and so absent from the JSON, on a
// server without durability, replication or snapshot transactions.
type Snapshot struct {
	OpLatency HistSnapshot `json:"op_latency"`
	TxLatency HistSnapshot `json:"tx_latency"`
	LockWait  HistSnapshot `json:"lock_wait"`

	TxCommits        uint64 `json:"tx_commits"`
	TxAborts         uint64 `json:"tx_aborts"`
	VictimsDeadlock  uint64 `json:"victims_deadlock"`
	VictimsCancelled uint64 `json:"victims_cancelled"`
	Victims          uint64 `json:"victims"` // the two causes summed

	QueuedWaiters    int64   `json:"queued_waiters"`
	ContendedObjects int64   `json:"contended_objects"`
	ShardQueued      []int64 `json:"lock_shard_queued,omitempty"` // QueuedWaiters by lock shard (index == shard id)

	FsyncLatency     HistSnapshot `json:"fsync_latency,omitzero"`
	WalAppends       uint64       `json:"wal_appends,omitempty"`
	WalFsyncs        uint64       `json:"wal_fsyncs,omitempty"`
	WalMaxBatch      int64        `json:"wal_max_batch,omitempty"`
	WalCheckpoints   uint64       `json:"wal_checkpoints,omitempty"`
	WalCheckpointLSN int64        `json:"wal_checkpoint_lsn,omitempty"`

	ShipLatency        HistSnapshot `json:"ship_latency,omitzero"`
	ReplBatches        uint64       `json:"repl_batches,omitempty"`
	ReplRecordsShipped uint64       `json:"repl_records_shipped,omitempty"`
	ReplAcks           uint64       `json:"repl_acks,omitempty"`
	ReplBatchesApplied uint64       `json:"repl_batches_applied,omitempty"`
	ReplRecordsApplied uint64       `json:"repl_records_applied,omitempty"`
	ReplFollowers      int64        `json:"repl_followers,omitempty"`
	ReplLagRecords     int64        `json:"repl_lag_records,omitempty"`
	ReplLag            float64      `json:"repl_lag_seconds,omitempty"` // seconds

	SnapReadLatency HistSnapshot `json:"snap_read_latency,omitzero"`
	SnapTxs         uint64       `json:"snap_txs,omitempty"`
	SnapReads       uint64       `json:"snap_reads,omitempty"`
	SnapPublishes   uint64       `json:"snap_publishes,omitempty"`
	SnapPinned      int64        `json:"snap_pinned,omitempty"`
}

// Snapshot captures the metric set.
func (m *Metrics) Snapshot() Snapshot {
	var shardQueued []int64
	if len(m.ShardQueued) > 0 {
		shardQueued = make([]int64, len(m.ShardQueued))
		for i := range m.ShardQueued {
			shardQueued[i] = m.ShardQueued[i].Load()
		}
	}
	deadlock, cancelled := m.VictimsDeadlock.Load(), m.VictimsCancelled.Load()
	return Snapshot{
		OpLatency:        m.OpLatency.Snapshot(),
		TxLatency:        m.TxLatency.Snapshot(),
		LockWait:         m.LockWait.Snapshot(),
		TxCommits:        m.TxCommits.Load(),
		TxAborts:         m.TxAborts.Load(),
		VictimsDeadlock:  deadlock,
		VictimsCancelled: cancelled,
		Victims:          deadlock + cancelled,
		QueuedWaiters:    m.QueuedWaiters.Load(),
		ContendedObjects: m.ContendedObjects.Load(),
		ShardQueued:      shardQueued,

		FsyncLatency:     m.FsyncLatency.Snapshot(),
		WalAppends:       m.WalAppends.Load(),
		WalFsyncs:        m.WalFsyncs.Load(),
		WalMaxBatch:      m.WalMaxBatch.Load(),
		WalCheckpoints:   m.WalCheckpoints.Load(),
		WalCheckpointLSN: m.WalCheckpointLSN.Load(),

		ShipLatency:        m.ShipLatency.Snapshot(),
		ReplBatches:        m.ReplBatches.Load(),
		ReplRecordsShipped: m.ReplRecordsShipped.Load(),
		ReplAcks:           m.ReplAcks.Load(),
		ReplBatchesApplied: m.ReplBatchesApplied.Load(),
		ReplRecordsApplied: m.ReplRecordsApplied.Load(),
		ReplFollowers:      m.ReplFollowers.Load(),
		ReplLagRecords:     m.ReplLagRecords.Load(),
		ReplLag:            time.Duration(m.ReplLag.Load()).Seconds(),

		SnapReadLatency: m.SnapReadLatency.Snapshot(),
		SnapTxs:         m.SnapTxs.Load(),
		SnapReads:       m.SnapReads.Load(),
		SnapPublishes:   m.SnapPublishes.Load(),
		SnapPinned:      m.SnapPinned.Load(),
	}
}

// LockStats counts lock-manager activity, aggregated across shards: the
// lock block of the METRICS payload. The lock manager keeps them as plain
// per-shard counters under each shard's mutex, not in a Metrics; read a
// consistent copy via its Stats method.
type LockStats struct {
	Acquires      uint64 `json:"lock_acquires"`       // granted lock acquisitions
	Waits         uint64 `json:"lock_waits"`          // acquisitions that blocked at least once
	Deadlocks     uint64 `json:"lock_deadlocks"`      // deadlock cycles broken
	CommitMoves   uint64 `json:"lock_commit_moves"`   // lock inheritances on commit
	AbortReleases uint64 `json:"lock_abort_releases"` // lock discards on abort

	Wakeups         uint64 `json:"lock_wakeups"`          // waiter wakeups issued by commits/aborts
	SpuriousWakeups uint64 `json:"lock_spurious_wakeups"` // wakeups after which the waiter was still blocked
	MaxQueueDepth   uint64 `json:"lock_max_queue_depth"`  // high-water mark of any per-object wait queue

	Shards      uint64 `json:"lock_shards"`                // number of lock shards (configuration, not a counter)
	Escalations uint64 `json:"lock_escalations,omitempty"` // deadlock walks that had to snapshot every shard
}

// ServerCounters are the server's own counters: the server block of the
// METRICS payload.
//
// A snapshot is mutually consistent: the server updates and copies all
// fields under one lock, never field-by-field from independent atomics.
// Cross-field invariants therefore hold in every snapshot — in
// particular Commits + Aborts <= TxBegun (a transaction's outcome is
// never visible before its beginning) and TxBegun <= Requests — and
// snapshots taken in sequence are monotone per field.
type ServerCounters struct {
	ActiveSessions  int64  `json:"active_sessions"`
	TotalSessions   uint64 `json:"total_sessions"`
	ReapedSessions  uint64 `json:"reaped_sessions"`
	RejectedConns   uint64 `json:"rejected_conns"`
	Requests        uint64 `json:"requests"`
	TxBegun         uint64 `json:"tx_begun"`
	Commits         uint64 `json:"commits"`
	Aborts          uint64 `json:"aborts"`
	DeadlockVictims uint64 `json:"deadlock_victims"`
	// SnapshotTxs counts read-only snapshot transactions begun. They
	// never enter the lock manager and are kept out of TxBegun/Commits,
	// so Commits + Aborts <= TxBegun stays an invariant.
	SnapshotTxs uint64 `json:"snapshot_txs,omitempty"`
}

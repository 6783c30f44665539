package nestedtx

import (
	"fmt"

	"nestedtx/internal/checker"
	"nestedtx/internal/core"
	"nestedtx/internal/wal"
)

// DurableOptions configures the write-ahead log of a durable manager;
// see wal.Options. The zero value is production-ready: real file system,
// 4 MiB segments, concurrent commits sharing each fsync.
type DurableOptions = wal.Options

// Recovery describes what OpenDurable found on disk; see wal.Recovery.
type Recovery struct{ *wal.Recovery }

// Verify machine-checks the recovered history with checker.Certify: the
// schedule the log renders must replay on every touched M(X) and end in
// the redo states the manager serves. Being serial, it is its own
// Theorem-34 witness, so the check is linear in the log.
func (r *Recovery) Verify() error {
	sched, st, err := r.Schedule()
	if err == nil {
		err = checker.Certify(sched, st, core.ReadWrite, r.States())
	}
	return err
}

// WalStats reports a durable manager's log position; see wal.Stats.
type WalStats = wal.Stats

// OpenDurable opens (creating if needed) a durable Manager backed by a
// write-ahead log in dir. Any state a previous process left in dir is
// recovered first — newest valid checkpoint, plus the redo of every
// intact record past it, with a torn tail truncated at the first bad
// CRC — and the recovered objects are registered before the manager is
// returned. The returned Recovery reports what was found; call its
// Verify method to machine-check the recovered history.
//
// On a durable manager every top-level commit stages its redo record
// before its locks are released and is acknowledged — [Tx.Commit] returns
// nil, [Manager.State] and snapshots show it — only after an fsync
// (group-committed with whatever else is waiting) covers it, so an
// acknowledged commit survives kill -9 and no lock waits for the device.
// A registration is staged the same way and not awaited: it is durable no
// later than the next acknowledged commit, SyncWAL, Checkpoint or
// CloseWAL. Objects and operations must use the library's serialisable
// types (see internal/adt); registering or committing something the codec
// cannot encode fails rather than logging a hole.
func OpenDurable(dir string, dopts DurableOptions, opts ...Option) (*Manager, *Recovery, error) {
	m := NewManager(opts...)
	dopts.Metrics = m.met
	lg, rec, err := wal.Open(dir, dopts)
	if err != nil {
		return nil, nil, err
	}
	for x, st := range rec.States() {
		if err := m.adopt(x, st); err != nil {
			lg.Close()
			return nil, nil, fmt.Errorf("nestedtx: adopt recovered object %q: %w", x, err)
		}
	}
	m.wal = lg
	lg.AutoCheckpoint(m.capture)
	return m, &Recovery{rec}, nil
}

// Durable reports whether the manager write-ahead logs its commits.
func (m *Manager) Durable() bool { return m.wal != nil }

// Checkpoint writes the committed-to-root state of every object into
// the log and removes the segments wholly below it. Commits are held off
// only while it notes the log's next LSN and holds the committed-version
// store there — it waits for commits between their stage and their lock
// release (microseconds) and costs the same at any object count. It then
// waits until every record below that LSN is durable, and writes the
// held states with commits flowing. A durable manager also checkpoints
// by itself once enough log has accumulated (see wal.Log.AutoCheckpoint);
// a checkpoint that fails leaves the log as it was.
func (m *Manager) Checkpoint() error {
	if m.wal == nil {
		return fmt.Errorf("nestedtx: Checkpoint requires a durable manager (OpenDurable)")
	}
	return m.wal.Checkpoint(m.capture)
}

// capture is the manager's checkpoint capture, called with staging
// excluded: every record below next has published — commits in applyTop,
// registrations in adoptLocked — and none at or above it has, so a hold
// on the store's latest publication reads exactly the redo of [0, next).
func (m *Manager) capture(next uint64) wal.Cut {
	h := m.snap.Hold()
	return wal.Cut{LSN: next, States: h.States, Release: h.Release}
}

// SyncWAL forces any buffered log records to stable storage now. A no-op
// on non-durable managers. If the log has latched a fatal error (a
// failed append poisoned it), SyncWAL reports that error even when the
// flush itself succeeds — a server drain over a poisoned log must fail
// loudly, never report a clean shutdown.
func (m *Manager) SyncWAL() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.Sync()
}

// CloseWAL flushes and closes the write-ahead log; the manager must not
// commit afterwards. A no-op on non-durable managers. Like SyncWAL it
// reports a latched fatal error rather than a clean shutdown.
func (m *Manager) CloseWAL() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.Close()
}

// WalStats returns the log position of a durable manager; ok is false on
// a non-durable one.
func (m *Manager) WalStats() (stats WalStats, ok bool) {
	if m.wal == nil {
		return WalStats{}, false
	}
	return m.wal.Stats(), true
}

// WAL exposes the underlying log of a durable manager (nil otherwise).
// The replication shipper tails it; ordinary callers never need it.
func (m *Manager) WAL() *wal.Log { return m.wal }

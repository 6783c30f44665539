package nestedtx

import "nestedtx/internal/snap"

// Snapshot is a read-only snapshot transaction: it pins the sequence
// number of the latest published top-level commit and serves every read
// from the committed version chain at or below that point, without ever
// touching the lock manager (see [snap.Tx] for the guarantees and the
// §4.3 argument that licenses them). It is the same type a replica
// serves; [Manager.Verify] machine-checks each one at its pin point.
type Snapshot = snap.Tx

// BeginSnapshot starts a read-only snapshot transaction pinned at the
// current commit sequence number. The caller must Close it.
func (m *Manager) BeginSnapshot() *Snapshot { return m.snap.Begin(m.met) }

// RunReadOnly runs fn as a read-only snapshot transaction and releases
// the snapshot when fn returns. All reads inside fn observe one
// consistent committed prefix of the history, pinned at entry.
func (m *Manager) RunReadOnly(fn func(*Snapshot) error) error {
	s := m.BeginSnapshot()
	defer s.Close()
	return fn(s)
}

package client

import (
	"fmt"

	"nestedtx"
	"nestedtx/internal/wire"
)

// Snapshot is an open remote read-only snapshot transaction: the remote
// mirror of nestedtx.Snapshot. Its reads are served from the server's
// committed-version store — pinned at the commit sequence number BEGIN
// returned — without ever touching the lock manager, so long scans
// neither block nor are blocked by writers. Followers serve snapshot
// transactions too (from their replicated version store), unlike
// locking transactions, which they refuse.
type Snapshot struct {
	c    *Client
	id   uint64
	name txName
	seq  uint64
}

// ID returns the snapshot transaction's server-assigned identifier
// (e.g. "S3"); the namespace is disjoint from the transaction tree's
// TIDs. The handle keeps the name's bytes, so each call builds a new
// string.
func (s *Snapshot) ID() string { return s.name.String() }

// Seq returns the pinned commit sequence number: the snapshot observes
// exactly the first Seq published top-level commits.
func (s *Snapshot) Seq() uint64 { return s.seq }

// BeginReadOnly opens a read-only snapshot transaction pinned at the
// server's current commit sequence number. Callers must resolve it with
// [Snapshot.Close]; prefer [Client.RunReadOnly], which does.
func (c *Client) BeginReadOnly() (*Snapshot, error) {
	c.mu.Lock()
	resp, name, err := c.open(&wire.Request{Type: wire.TBegin, ReadOnly: true})
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &Snapshot{c: c, id: resp.Tx, name: name, seq: resp.Snap}, nil
}

// Read applies a read-only operation to obj's state as of the pinned
// sequence number and returns its value. It rejects mutating operations
// client-side; the server enforces the same rule.
func (s *Snapshot) Read(obj string, op nestedtx.Op) (nestedtx.Value, error) {
	if !op.ReadOnly() {
		return nil, fmt.Errorf("client: snapshot Read with non-read-only op %v", op)
	}
	return s.c.access(wire.TRead, s.id, obj, op)
}

// Close ends the snapshot transaction, releasing the server-side pin so
// the version store can trim the history it was holding.
func (s *Snapshot) Close() error {
	var resp wire.Response
	return s.c.call(&wire.Request{Type: wire.TCommit, Tx: s.id}, &resp)
}

// RunReadOnly runs fn as a remote read-only snapshot transaction and
// releases the snapshot when fn returns — the remote mirror of
// Manager.RunReadOnly. All reads inside fn observe one consistent
// committed prefix of the history, pinned at entry.
func (c *Client) RunReadOnly(fn func(*Snapshot) error) error {
	s, err := c.BeginReadOnly()
	if err != nil {
		return err
	}
	err = fn(s)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

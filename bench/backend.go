package main

import (
	"nestedtx"
	"nestedtx/client"
)

// txn is what a workload body needs from an open transaction. The
// embedded nestedtx.Tx and the remote client.Tx have the same methods
// but different Sub callback types; the adapters below hide that, so
// every transaction shape is written once and runs on either path.
type txn interface {
	Do(obj string, op nestedtx.Op) (nestedtx.Value, error)
	Sub(fn func(txn) error) error
}

// reader is a read-only snapshot transaction; nestedtx.Snapshot and
// client.Snapshot both satisfy it as they are.
type reader interface {
	Read(obj string, op nestedtx.Op) (nestedtx.Value, error)
}

// backend runs top-level transactions: one per closed-loop client.
type backend interface {
	RunRetry(attempts int, fn func(txn) error) error
	RunReadOnly(fn func(reader) error) error
}

// embedded drives a Manager in-process.
type embedded struct{ m *nestedtx.Manager }

type embeddedTx struct{ tx *nestedtx.Tx }

func (e embedded) RunRetry(attempts int, fn func(txn) error) error {
	return e.m.RunRetry(attempts, func(tx *nestedtx.Tx) error { return fn(embeddedTx{tx}) })
}

func (e embedded) RunReadOnly(fn func(reader) error) error {
	return e.m.RunReadOnly(func(s *nestedtx.Snapshot) error { return fn(s) })
}

func (t embeddedTx) Do(obj string, op nestedtx.Op) (nestedtx.Value, error) {
	return t.tx.Do(obj, op)
}

func (t embeddedTx) Sub(fn func(txn) error) error {
	return t.tx.Sub(func(c *nestedtx.Tx) error { return fn(embeddedTx{c}) })
}

// remote drives a server session over one client connection.
type remote struct{ c *client.Client }

type remoteTx struct{ tx *client.Tx }

func (r remote) RunRetry(attempts int, fn func(txn) error) error {
	return r.c.RunRetry(attempts, func(tx *client.Tx) error { return fn(remoteTx{tx}) })
}

func (r remote) RunReadOnly(fn func(reader) error) error {
	return r.c.RunReadOnly(func(s *client.Snapshot) error { return fn(s) })
}

func (t remoteTx) Do(obj string, op nestedtx.Op) (nestedtx.Value, error) {
	return t.tx.Do(obj, op)
}

func (t remoteTx) Sub(fn func(txn) error) error {
	return t.tx.Sub(func(c *client.Tx) error { return fn(remoteTx{c}) })
}

// tracedTx records a span around every call the body makes into the
// transaction layer, as a child of the span that caused it.
type tracedTx struct {
	inner  txn
	rec    *recorder
	parent int32
}

func (t *tracedTx) Do(obj string, op nestedtx.Op) (nestedtx.Value, error) {
	name := spDoWrite
	if op.ReadOnly() {
		name = spDoRead
	}
	start := t.rec.now()
	v, err := t.inner.Do(obj, op)
	t.rec.add(name, t.parent, start, t.rec.now())
	return v, err
}

func (t *tracedTx) Sub(fn func(txn) error) error {
	id := t.rec.open(spSub, t.parent, t.rec.now())
	err := t.inner.Sub(func(c txn) error { return fn(&tracedTx{inner: c, rec: t.rec, parent: id}) })
	t.rec.close(id, t.rec.now())
	return err
}

// tracedReader is tracedTx for snapshot reads.
type tracedReader struct {
	inner  reader
	rec    *recorder
	parent int32
}

func (t *tracedReader) Read(obj string, op nestedtx.Op) (nestedtx.Value, error) {
	start := t.rec.now()
	v, err := t.inner.Read(obj, op)
	t.rec.add(spScanRead, t.parent, start, t.rec.now())
	return v, err
}

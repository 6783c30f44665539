package checker

import (
	"fmt"
	"reflect"
	"sort"

	"nestedtx/internal/adt"
	"nestedtx/internal/event"
	"nestedtx/internal/snap"
	"nestedtx/internal/tree"
)

// This file extends the Theorem-34 machinery to read-only snapshot
// transactions. A snapshot transaction is not part of the transaction
// tree — it never touches the lock manager — so CheckAll cannot place
// it. Instead, CheckSnapshots proves that the serial order induced by
// the publication sequence numbers is the same order the locking
// history already serializes to, and that every snapshot read is the
// unique value a serial execution of the committed prefix up to the
// reader's pin point would return. A read-only transaction that sees
// one consistent committed prefix is serializable (write skew needs
// writes), so the combined history — locking transactions in conflict
// order, each snapshot transaction inserted at its pin point — is
// serially correct. When it is not, the checker does not just fail: it
// classifies the anomaly it found.

// Snapshot anomaly kinds reported by CheckSnapshots.
const (
	// AnomalyUncommittedPublication: a publication whose top-level
	// transaction never committed — an aborted or live transaction's
	// writes leaked into the snapshot store (the dirty-read class).
	AnomalyUncommittedPublication = "uncommitted-publication"
	// AnomalyUnpublishedCommit: a committed top-level transaction wrote
	// an object but no publication carries those writes — snapshot
	// readers would silently miss a committed update (lost-update class
	// as seen by readers).
	AnomalyUnpublishedCommit = "unpublished-commit"
	// AnomalySpuriousPublication: a publication claims an object its
	// transaction never wrote (committed-to-root) in the locking
	// history.
	AnomalySpuriousPublication = "spurious-publication"
	// AnomalyPublicationOrder: per-object publication order disagrees
	// with the conflict order the lock manager serialized the writers
	// into, or two writers' runs interleave on one object (strict
	// locking forbids it).
	AnomalyPublicationOrder = "publication-order"
	// AnomalyVersionDivergence: a publication's state differs from the
	// state replaying the committed writes produces — a torn or
	// corrupted version.
	AnomalyVersionDivergence = "version-divergence"
	// AnomalyNonReadOnlyOp: a snapshot transaction ran an operation
	// that is not read-only.
	AnomalyNonReadOnlyOp = "non-read-only-op"
	// AnomalyMutatingRead: a read-only operation changed the state it
	// was applied to, breaking the equieffectiveness contract (§4.3)
	// the snapshot path relies on.
	AnomalyMutatingRead = "mutating-read"
	// AnomalyInconsistentRead: a snapshot read returned a value that
	// the committed prefix at its pin point cannot produce — the reader
	// saw a dirty, torn, or future state.
	AnomalyInconsistentRead = "inconsistent-read"
	// AnomalyUnsettledPin: a snapshot transaction pinned a sequence
	// number covering a publication that had not settled — its commit
	// record was not yet durable, so the reader may have seen a commit a
	// crash would lose.
	AnomalyUnsettledPin = "unsettled-pin"
)

// SnapshotAnomaly is a classified violation of snapshot correctness.
type SnapshotAnomaly struct {
	Kind   string // one of the Anomaly* constants
	Tx     string // the offending transaction (top-level or snapshot id)
	Object string // the object involved, when per-object
	Detail string
}

func (a *SnapshotAnomaly) Error() string {
	s := fmt.Sprintf("checker: snapshot anomaly [%s]", a.Kind)
	if a.Tx != "" {
		s += " tx=" + a.Tx
	}
	if a.Object != "" {
		s += " object=" + a.Object
	}
	return s + ": " + a.Detail
}

// CheckSnapshots verifies the publication log and the recorded snapshot
// transactions against the locking history alpha:
//
//  1. Per object, the committed-to-root write accesses in alpha form
//     contiguous runs per top-level transaction (strict locking), and
//     the runs' order equals the publication order by sequence number.
//  2. Each publication's state equals the state replaying the run
//     produces — the store holds exactly the committed version chain.
//  3. Each snapshot read returns precisely the value a serial
//     execution of the committed prefix up to its pin point yields,
//     and its operation is read-only and leaves the state unchanged.
//  4. Every publication at or below a snapshot transaction's pin point
//     settled — its commit record was durable — before the pin was
//     taken (the store's tick orders the two).
//
// Together these place every snapshot transaction at its pin point in
// the serial order of Theorem 34 and prove the combined history
// serially correct; on failure the returned *SnapshotAnomaly names the
// violated guarantee.
func CheckSnapshots(alpha event.Schedule, st *event.SystemType, pubs []snap.PubEntry, txs []snap.TxEntry) error {
	pubs = append([]snap.PubEntry(nil), pubs...)
	sort.Slice(pubs, func(i, j int) bool { return pubs[i].Seq < pubs[j].Seq })
	for i := 1; i < len(pubs); i++ {
		if pubs[i].Seq == pubs[i-1].Seq {
			return &SnapshotAnomaly{Kind: AnomalyPublicationOrder, Tx: pubs[i].Top,
				Detail: fmt.Sprintf("duplicate publication sequence number %d (also %s)", pubs[i].Seq, pubs[i-1].Top)}
		}
	}

	// Committed transactions, for the committed-to-root test.
	committed := make(map[tree.TID]bool)
	for _, e := range alpha {
		if e.Kind == event.Commit {
			committed[e.T] = true
		}
	}
	committedToRoot := func(t tree.TID) bool {
		for ; t != tree.Root; t = t.Parent() {
			if !committed[t] {
				return false
			}
		}
		return true
	}

	// Every publication must belong to a committed top-level transaction.
	for _, p := range pubs {
		top := tree.TID(p.Top)
		if top.Parent() != tree.Root || !committed[top] {
			return &SnapshotAnomaly{Kind: AnomalyUncommittedPublication, Tx: p.Top,
				Detail: fmt.Sprintf("publication %d carries writes of a transaction that never committed to root", p.Seq)}
		}
	}

	// Per-object publication lists, in sequence order.
	type pubVersion struct {
		seq   uint64
		top   string
		state adt.State
	}
	pubsAt := make(map[string][]pubVersion)
	for _, p := range pubs {
		for x, s := range p.Updates {
			pubsAt[x] = append(pubsAt[x], pubVersion{seq: p.Seq, top: p.Top, state: s})
		}
	}

	// Replay the committed-to-root write accesses of each object, in
	// alpha order, grouped into runs per top-level transaction, and
	// reconcile the runs against the publications. Only objects with
	// events or publications need replaying — for any other object both
	// sides are empty.
	relevant := make(map[string]struct{})
	for _, x := range alpha.TouchedObjects(st) {
		relevant[x] = struct{}{}
	}
	for x := range pubsAt {
		relevant[x] = struct{}{}
	}
	objs := make([]string, 0, len(relevant))
	for x := range relevant {
		objs = append(objs, x)
	}
	sort.Strings(objs)
	type run struct {
		top   string
		state adt.State
	}
	for _, x := range objs {
		initial, _ := st.ObjectInitial(x)
		state := initial
		var runs []run
		seen := make(map[string]bool) // tops whose run already closed
		for _, e := range alpha {
			if e.Kind != event.RequestCommit {
				continue
			}
			a, ok := st.AccessInfo(e.T)
			if !ok || a.Object != x || a.Op.ReadOnly() || !committedToRoot(e.T) {
				continue
			}
			top := string(tree.Root.ChildToward(e.T))
			if len(runs) == 0 || runs[len(runs)-1].top != top {
				if seen[top] {
					return &SnapshotAnomaly{Kind: AnomalyPublicationOrder, Tx: top, Object: x,
						Detail: "committed write runs interleave: a second run of the same transaction after another writer's"}
				}
				runs = append(runs, run{top: top})
				seen[top] = true
			}
			next, v := a.Op.Apply(state)
			if v != e.Value {
				return &SnapshotAnomaly{Kind: AnomalyVersionDivergence, Tx: string(e.T), Object: x,
					Detail: fmt.Sprintf("committed write access returned %v but the committed version chain yields %v", e.Value, v)}
			}
			state = next
			runs[len(runs)-1].state = state
		}
		pv := pubsAt[x]
		for i := 0; i < len(runs) || i < len(pv); i++ {
			switch {
			case i >= len(pv):
				return &SnapshotAnomaly{Kind: AnomalyUnpublishedCommit, Tx: runs[i].top, Object: x,
					Detail: "committed writes have no publication; snapshot readers would miss them"}
			case i >= len(runs):
				return &SnapshotAnomaly{Kind: AnomalySpuriousPublication, Tx: pv[i].top, Object: x,
					Detail: fmt.Sprintf("publication %d claims the object but the transaction never wrote it", pv[i].seq)}
			case runs[i].top != pv[i].top:
				return &SnapshotAnomaly{Kind: AnomalyPublicationOrder, Tx: pv[i].top, Object: x,
					Detail: fmt.Sprintf("publication order has %s at position %d where the conflict order has %s", pv[i].top, i, runs[i].top)}
			case !reflect.DeepEqual(runs[i].state, pv[i].state):
				return &SnapshotAnomaly{Kind: AnomalyVersionDivergence, Tx: pv[i].top, Object: x,
					Detail: fmt.Sprintf("published state %v differs from the replayed committed state %v", pv[i].state, runs[i].state)}
			}
		}
	}

	// Check every snapshot read against the committed prefix at its pin
	// point: initial state, then every publication of the object with
	// seq ≤ pin, in order.
	for _, tx := range txs {
		for _, r := range tx.Reads {
			if !r.Op.ReadOnly() {
				return &SnapshotAnomaly{Kind: AnomalyNonReadOnlyOp, Tx: tx.ID, Object: r.Object,
					Detail: fmt.Sprintf("operation %T is not read-only", r.Op)}
			}
			state, ok := st.ObjectInitial(r.Object)
			if !ok {
				return &SnapshotAnomaly{Kind: AnomalyInconsistentRead, Tx: tx.ID, Object: r.Object,
					Detail: "read of an object the system type never defined"}
			}
			for _, v := range pubsAt[r.Object] {
				if v.seq > tx.Seq {
					break
				}
				state = v.state
			}
			next, val := r.Op.Apply(state)
			if !reflect.DeepEqual(next, state) {
				return &SnapshotAnomaly{Kind: AnomalyMutatingRead, Tx: tx.ID, Object: r.Object,
					Detail: fmt.Sprintf("read-only operation %T changed the state it was applied to", r.Op)}
			}
			if val != r.Value {
				return &SnapshotAnomaly{Kind: AnomalyInconsistentRead, Tx: tx.ID, Object: r.Object,
					Detail: fmt.Sprintf("read at pin %d returned %v; the committed prefix yields %v", tx.Seq, r.Value, val)}
			}
		}
	}

	// No pin ran ahead of the log: everything it covers had settled.
	for _, tx := range txs {
		for _, p := range pubs {
			if p.Seq > tx.Seq {
				break
			}
			if p.Settled == 0 || p.Settled > tx.Pinned {
				return &SnapshotAnomaly{Kind: AnomalyUnsettledPin, Tx: tx.ID,
					Detail: fmt.Sprintf("pin %d (tick %d) covers publication %d of %s, settled at tick %d", tx.Seq, tx.Pinned, p.Seq, p.Top, p.Settled)}
			}
		}
	}
	return nil
}

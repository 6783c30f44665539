package lockmgr

import (
	"fmt"
	"math/rand"
	"testing"

	"nestedtx/internal/adt"
	"nestedtx/internal/core"
	"nestedtx/internal/tree"
)

// lockModel is the plain-map statement of who holds what: per object, per
// transaction, the modes held. The root's initial write lock is implicit.
type lockModel struct {
	holds map[string]map[tree.TID]modes
	// What the sequence implies the manager's counters must read.
	acquires, commitMoves, abortReleases uint64
}

type modes struct{ read, write bool }

// admits reports Moss' rule: every holder of a conflicting lock on x is an
// ancestor of tx.
func (lm *lockModel) admits(tx tree.TID, x string, write bool) bool {
	for u, h := range lm.holds[x] {
		if (h.write || write) && !u.IsAncestorOf(tx) {
			return false
		}
	}
	return true
}

func (lm *lockModel) grant(tx tree.TID, x string, write bool) {
	h := lm.holds[x][tx]
	if write {
		h.write = true
	} else {
		h.read = true
	}
	if lm.holds[x] == nil {
		lm.holds[x] = make(map[tree.TID]modes)
	}
	lm.holds[x][tx] = h
	lm.acquires++
}

// commit passes tx's locks to its parent: one move per object.
func (lm *lockModel) commit(tx tree.TID) {
	p := tx.Parent()
	for _, hs := range lm.holds {
		h, ok := hs[tx]
		if !ok {
			continue
		}
		delete(hs, tx)
		lm.commitMoves++
		if p == tree.Root {
			continue // merges into the root's permanent write lock
		}
		ph := hs[p]
		hs[p] = modes{read: ph.read || h.read, write: ph.write || h.write}
	}
}

// abort discards the locks of tx's whole subtree: one release per object
// that lost a holder.
func (lm *lockModel) abort(tx tree.TID) {
	for _, hs := range lm.holds {
		lost := false
		for u := range hs {
			if u.IsDescendantOf(tx) {
				delete(hs, u)
				lost = true
			}
		}
		if lost {
			lm.abortReleases++
		}
	}
}

// agrees compares the manager's lock tables with the model, object by
// object.
func (lm *lockModel) agrees(m *Manager, objects []string) error {
	for _, x := range objects {
		sh := m.shardFor(x)
		sh.mu.Lock()
		ls := sh.objects[x]
		want := lm.holds[x]
		err := func() error {
			if !ls.write.Has(tree.Root) {
				return fmt.Errorf("%s: root's write lock lost", x)
			}
			for u, h := range want {
				if ls.read.Has(u) != h.read || ls.write.Has(u) != h.write {
					return fmt.Errorf("%s: %s holds read=%v write=%v, model says %+v", x, u, ls.read.Has(u), ls.write.Has(u), h)
				}
			}
			for _, s := range []tree.Set{ls.read, ls.write} {
				for u := range s {
					if _, ok := want[u]; !ok && u != tree.Root {
						return fmt.Errorf("%s: %s holds a lock the model does not know", x, u)
					}
				}
			}
			return nil
		}()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// TestRandomSequenceAgainstModel runs a seeded single-threaded sequence of
// grants, nested commits and subtree aborts — only grants the rule admits,
// so nothing ever waits — and after every step checks the invariants
// (index sets adopted, merged and recycled; footprint bit sets) and the
// lock tables against the model. At the end the counters equal what the
// sequence implies and every per-transaction index is gone.
func TestRandomSequenceAgainstModel(t *testing.T) {
	for _, shards := range []int{1, 2, 7, 130} { // 130: a footprint of three words
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shards)))
			m := NewSharded(nil, core.ReadWrite, nil, shards)
			objects := make([]string, 12)
			for i := range objects {
				objects[i] = fmt.Sprintf("obj%d", i)
				if err := m.Register(objects[i], adt.Counter{}); err != nil {
					t.Fatal(err)
				}
			}
			model := &lockModel{holds: make(map[string]map[tree.TID]modes)}
			var live []tree.TID                // every transaction that has not returned
			nextChild := map[tree.TID]int{}    // per parent (and the root)
			liveChildren := map[tree.TID]int{} // running subtransactions
			begin := func(p tree.TID) {
				c := p.Child(nextChild[p])
				nextChild[p]++
				liveChildren[p]++
				live = append(live, c)
			}
			// end removes tx (and, aborting, its subtree) from the live set.
			end := func(tx tree.TID, subtree bool) {
				liveChildren[tx.Parent()]--
				kept := live[:0]
				for _, u := range live {
					if u == tx || (subtree && u.IsDescendantOf(tx)) {
						delete(liveChildren, u)
						continue
					}
					kept = append(kept, u)
				}
				live = kept
			}
			step := func(i int) {
				if len(live) == 0 {
					begin(tree.Root)
					return
				}
				tx := live[rng.Intn(len(live))]
				switch r := rng.Intn(20); {
				case r < 2 && len(live) < 12:
					begin(tree.Root)
				case r < 6 && tx.Level() < 4:
					begin(tx)
				case r < 15:
					x := objects[rng.Intn(len(objects))]
					write := rng.Intn(2) == 0
					if !model.admits(tx, x, write) {
						return
					}
					var op adt.Op = adt.CtrGet{}
					if write {
						op = adt.CtrAdd{Delta: 1}
					}
					access := tx.Child(nextChild[tx])
					nextChild[tx]++
					if _, err := m.Acquire(tx, access, x, op, nil); err != nil {
						t.Fatalf("step %d: Acquire(%s, %s, write=%v): %v", i, tx, x, write, err)
					}
					model.grant(tx, x, write)
				case r < 18:
					if liveChildren[tx] > 0 {
						return // a transaction commits after its children return
					}
					m.Commit(tx, nil)
					model.commit(tx)
					end(tx, false)
				default:
					m.Abort(tx)
					model.abort(tx)
					end(tx, true)
				}
			}
			check := func(i int) {
				t.Helper()
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if err := model.agrees(m, objects); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			const steps = 4000
			for i := 0; i < steps; i++ {
				step(i)
				check(i)
			}
			// Wind down: abort what is left, top-level by top-level.
			for len(live) > 0 {
				top := topOf(live[0])
				m.Abort(top)
				model.abort(top)
				end(top, true)
				check(steps)
			}
			st := m.Stats()
			if st.Acquires != model.acquires || st.CommitMoves != model.commitMoves || st.AbortReleases != model.abortReleases {
				t.Fatalf("Stats = acquires %d, commit moves %d, abort releases %d; the sequence implies %d, %d, %d",
					st.Acquires, st.CommitMoves, st.AbortReleases, model.acquires, model.commitMoves, model.abortReleases)
			}
			if model.acquires < steps/8 || model.commitMoves == 0 || model.abortReleases == 0 {
				t.Fatalf("sequence too thin: %+v", model)
			}
			if st.Waits != 0 {
				t.Fatalf("Waits = %d: the model admitted a grant the manager blocked", st.Waits)
			}
			// Nothing per transaction survives: the root's entry is the
			// only index set, the footprint index is empty.
			for _, sh := range m.shards {
				if len(sh.held) > 1 {
					t.Fatalf("shard %d: %d held-locks index entries after every transaction ended", sh.id, len(sh.held))
				}
			}
			for i := range m.stripes {
				if n := len(m.stripes[i].held); n != 0 {
					t.Fatalf("stripe %d: %d footprint entries after every transaction ended", i, n)
				}
			}
		})
	}
}

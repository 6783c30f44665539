package nestedtx

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"nestedtx/internal/lockmgr"
)

// withLockShards pins the lock-manager shard count, so a test can place
// objects on or across shard boundaries.
func withLockShards(n int) Option { return func(o *options) { o.shards = n } }

// objInShard returns n distinct object names that hash to the given
// shard under a shards-way partition, so tests can place deadlock
// cycles exactly on or across shard boundaries.
func objInShard(t *testing.T, shard, shards, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		name := fmt.Sprintf("s%d_obj%d", shard, i)
		if lockmgr.ShardOf(name, shards) == shard {
			out = append(out, name)
		}
		if i > 100000 {
			t.Fatalf("no %d names hashing to shard %d/%d", n, shard, shards)
		}
	}
	return out
}

// runCycle runs one transaction per (first, second) object pair, with a
// rendezvous between the first and second write so every transaction
// holds its first lock before requesting its second — the canonical
// deadlock build-up. It returns how many transactions were chosen as
// deadlock victims and fails the test on any other error.
func runCycle(t *testing.T, m *Manager, pairs [][2]string) int {
	t.Helper()
	barrier := make(chan struct{}, len(pairs))
	rendezvous := func() {
		barrier <- struct{}{}
		for len(barrier) < cap(barrier) {
		}
	}
	var wg sync.WaitGroup
	res := make([]error, len(pairs))
	for i, p := range pairs {
		wg.Add(1)
		go func(i int, first, second string) {
			defer wg.Done()
			res[i] = m.Run(func(tx *Tx) error {
				if _, err := tx.Write(first, RegWrite{V: int64(i)}); err != nil {
					return err
				}
				rendezvous()
				_, err := tx.Write(second, RegWrite{V: int64(i)})
				return err
			})
		}(i, p[0], p[1])
	}
	wg.Wait()
	victims := 0
	for i, err := range res {
		if errors.Is(err, ErrDeadlock) {
			victims++
		} else if err != nil {
			t.Fatalf("transaction %d: unexpected error: %v", i, err)
		}
	}
	return victims
}

// checkAfterCycle is the common post-condition of the shard-boundary
// deadlock suite: exactly one victim was chosen, the survivors
// committed, the partitioned indexes are internally and mutually
// consistent, and the recorded schedule replays through the checker
// (Theorem 34 holds for the run that included the abort).
func checkAfterCycle(t *testing.T, m *Manager, victims int) {
	t.Helper()
	if victims != 1 {
		t.Fatalf("want exactly 1 deadlock victim, got %d", victims)
	}
	if got := m.Stats().Deadlocks; got != 1 {
		t.Fatalf("stats count %d deadlocks, want 1", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestShardDeadlockSameShard pins the local detection path: a 2-cycle
// whose objects live in one shard of four must be found and broken
// without ever escalating to the all-shard walk.
func TestShardDeadlockSameShard(t *testing.T) {
	const shards = 4
	m := NewManager(WithRecording(), withLockShards(shards))
	if got := m.lm.ShardCount(); got != shards {
		t.Fatalf("ShardCount = %d, want %d", got, shards)
	}
	objs := objInShard(t, 2, shards, 2)
	for _, x := range objs {
		m.MustRegister(x, NewRegister(int64(0)))
	}
	victims := runCycle(t, m, [][2]string{{objs[0], objs[1]}, {objs[1], objs[0]}})
	checkAfterCycle(t, m, victims)
	if got := m.Stats().Escalations; got != 0 {
		t.Fatalf("same-shard cycle escalated %d times; must stay local", got)
	}
}

// TestShardDeadlockTwoShards crosses one boundary: each transaction
// holds a lock in one shard and waits in the other, so neither shard's
// local view contains the whole cycle — detection must escalate, and
// still elect exactly one victim.
func TestShardDeadlockTwoShards(t *testing.T) {
	const shards = 4
	m := NewManager(WithRecording(), withLockShards(shards))
	x := objInShard(t, 0, shards, 1)[0]
	y := objInShard(t, 1, shards, 1)[0]
	m.MustRegister(x, NewRegister(int64(0)))
	m.MustRegister(y, NewRegister(int64(0)))
	victims := runCycle(t, m, [][2]string{{x, y}, {y, x}})
	checkAfterCycle(t, m, victims)
	if got := m.Stats().Escalations; got == 0 {
		t.Fatal("cross-shard cycle broken without escalation: local walk cannot have seen it")
	}
}

// TestShardDeadlockThreeShards is the 3-transaction ring over three
// shards: t0 holds a (shard 0) and wants b (shard 1), t1 holds b and
// wants c (shard 2), t2 holds c and wants a. Every shard sees exactly
// one wait edge, so only the escalated walk can close the ring; it must
// abort exactly one transaction and let the other two commit.
func TestShardDeadlockThreeShards(t *testing.T) {
	const shards = 4
	m := NewManager(WithRecording(), withLockShards(shards))
	a := objInShard(t, 0, shards, 1)[0]
	b := objInShard(t, 1, shards, 1)[0]
	c := objInShard(t, 2, shards, 1)[0]
	for _, x := range []string{a, b, c} {
		m.MustRegister(x, NewRegister(int64(0)))
	}
	victims := runCycle(t, m, [][2]string{{a, b}, {b, c}, {c, a}})
	checkAfterCycle(t, m, victims)
	if got := m.Stats().Escalations; got == 0 {
		t.Fatal("three-shard ring broken without escalation: local walk cannot have seen it")
	}
}

// TestShardPartitionInvariants runs a concurrent mixed workload over a
// many-shard manager while CheckInvariants races the traffic: the
// per-shard tables must partition the universe cleanly (every object in
// exactly the shard its hash names — checkLocked verifies placement),
// the cross-shard footprint and waiter indexes must reconcile with the
// queues at every instant, and the final schedule must replay. The
// workload is kept small because the checker's replay is super-linear
// in schedule length (cf. the unrecorded race stress test).
func TestShardPartitionInvariants(t *testing.T) {
	const shards = 8
	m := NewManager(WithRecording(), withLockShards(shards))
	const objects = 32
	for i := 0; i < objects; i++ {
		m.MustRegister(fmt.Sprintf("o%d", i), NewRegister(int64(0)))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("invariants under load: %v", err)
				return
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < 6; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 8; i++ {
				m.RunRetry(10, func(tx *Tx) error {
					for k := 0; k < 3; k++ {
						obj := fmt.Sprintf("o%d", (w*13+i*7+k*17)%objects)
						if _, err := tx.Write(obj, RegWrite{V: int64(i)}); err != nil {
							return err
						}
					}
					return nil
				})
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants at rest: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if got := m.Stats().Shards; got != shards {
		t.Fatalf("Stats().Shards = %d, want %d", got, shards)
	}
}

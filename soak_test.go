package nestedtx

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestSoak is a bounded endurance run of the full runtime: many workers,
// all data types, nested concurrent shapes, voluntary aborts and deadlock
// retries — with the formal verification and invariant checks at the end.
// TestNetworkChaosSoak (soak_net_test.go) is its network counterpart,
// running the same kind of workload through the server and client pool
// under faultnet's connection-failure schedules.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	// Bound by transaction count, not wall time: Verify replays the whole
	// recorded history per transaction, so the history must stay test-sized.
	m, committed, gaveUp := recordSoak(t, 25, time.Now().Add(30*time.Second))
	if committed == 0 {
		t.Fatal("soak committed nothing")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("soak run failed verification (%d committed, %d gave up): %v", committed, gaveUp, err)
	}
	t.Logf("soak: %d committed, %d gave up, %d events verified", committed, gaveUp, m.rec.Len())
}

// BenchmarkVerifySoak times Manager.Verify on a recorded TestSoak-shaped
// history of txs top-level transactions.
func BenchmarkVerifySoak(b *testing.B) {
	for _, txs := range []int{100, 200, 400} {
		b.Run(fmt.Sprintf("txs=%d", txs), func(b *testing.B) {
			m, _, _ := recordSoak(b, txs/4, time.Now().Add(time.Hour))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Verify(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.rec.Len()), "events/op")
		})
	}
}

// recordSoak runs the soak workload on a recording manager: 4 workers,
// each running up to perWorker top-level transactions of soakBody at
// depth 2 until deadline. It returns the manager and how many
// transactions committed and gave up on deadlock.
func recordSoak(tb testing.TB, perWorker int, deadline time.Time) (m *Manager, committed, gaveUp int64) {
	m = NewManager(WithRecording())
	m.MustRegister("reg", NewRegister(int64(0)))
	m.MustRegister("ctr", Counter{})
	m.MustRegister("acct", Account{Balance: 1000})
	m.MustRegister("set", NewIntSet())
	m.MustRegister("tbl", NewTable(nil))
	m.MustRegister("q", NewQueue())

	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < perWorker && time.Now().Before(deadline); n++ {
				err := m.RunRetry(40, func(tx *Tx) error {
					return soakBody(tx, rng.Int63(), 2)
				})
				mu.Lock()
				if err == nil {
					committed++
				} else if errors.Is(err, ErrDeadlock) {
					gaveUp++
				} else if !errors.Is(err, errSoakAbort) {
					mu.Unlock()
					tb.Errorf("unexpected error: %v", err)
					return
				}
				mu.Unlock()
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	return m, committed, gaveUp
}

var errSoakAbort = errors.New("soak: voluntary abort")

func soakBody(tx *Tx, seed int64, depth int) error {
	rng := rand.New(rand.NewSource(seed))
	ops := 1 + rng.Intn(4)
	for i := 0; i < ops; i++ {
		var err error
		switch rng.Intn(8) {
		case 0:
			_, err = tx.Do("reg", RegWrite{V: rng.Int63n(100)})
		case 1:
			_, err = tx.Do("reg", RegRead{})
		case 2:
			_, err = tx.Do("ctr", CtrAdd{Delta: 1})
		case 3:
			_, err = tx.Do("acct", AcctDeposit{Amount: 1})
		case 4:
			_, err = tx.Do("set", SetInsert{X: rng.Int63n(16)})
		case 5:
			_, err = tx.Do("tbl", TblPut{K: fmt.Sprintf("k%d", rng.Intn(4)), V: rng.Int63n(50)})
		case 6:
			_, err = tx.Do("q", QEnqueue{V: rng.Int63n(10)})
		default:
			if depth > 0 {
				childSeed := rng.Int63()
				suberr := tx.Sub(func(sub *Tx) error {
					if e := soakBody(sub, childSeed, depth-1); e != nil {
						return e
					}
					if rng.Intn(4) == 0 {
						return errSoakAbort
					}
					return nil
				})
				if suberr != nil && !errors.Is(suberr, errSoakAbort) {
					return suberr
				}
				continue
			}
			_, err = tx.Do("ctr", CtrGet{})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

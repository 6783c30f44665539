package snap

import (
	"fmt"
	"strings"
	"testing"

	"nestedtx/internal/adt"
)

// horizon is the sequence number a pin taken now gets.
func horizon(s *Store) uint64 {
	p := s.Acquire()
	defer p.Release()
	return p.Seq()
}

func headN(t *testing.T, s *Store, x string) int64 {
	t.Helper()
	st, err := s.Head(x)
	if err != nil {
		t.Fatalf("Head(%s): %v", x, err)
	}
	return st.(adt.Counter).N
}

// TestHorizonWaitsForTheOldestUnsettled: sequence order is not log
// order for commits that do not conflict, so seq 2 (LSN 5) may settle
// before seq 1 (LSN 6) — and must stay hidden until seq 1 settles too.
func TestHorizonWaitsForTheOldestUnsettled(t *testing.T) {
	s := New(false)
	s.Base("x", ctr(0))
	s.Base("y", ctr(0))
	s.Stage("T1", map[string]adt.State{"x": ctr(1)}, 6)
	s.Stage("T2", map[string]adt.State{"y": ctr(2)}, 5)
	if s.Seq() != 2 || horizon(s) != 0 {
		t.Fatalf("after two stages: seq %d horizon %d, want 2 and 0", s.Seq(), horizon(s))
	}
	if h := s.Settle(6); h != 0 {
		t.Fatalf("horizon %d after settling seq 2 over an unsettled seq 1, want 0", h)
	}
	if x, y := headN(t, s, "x"), headN(t, s, "y"); x != 0 || y != 0 {
		t.Fatalf("Head shows x=%d y=%d below an unsettled publication, want 0 0", x, y)
	}
	if h := s.Settle(7); h != 2 {
		t.Fatalf("horizon %d after both settled, want the jump to 2", h)
	}
	if x, y := headN(t, s, "x"), headN(t, s, "y"); x != 1 || y != 2 {
		t.Fatalf("Head x=%d y=%d after both settled, want 1 2", x, y)
	}
}

// TestTrimKeepsWhatHorizonReadersNeed: with no pin live, trim's floor
// is the horizon — taken after the new publication is counted unsettled.
// Taken before, the first stage over a settled store would floor at its
// own sequence number, trim x's chain down to the unsettled version, and
// leave Head and a pin at the horizon nothing to read.
func TestTrimKeepsWhatHorizonReadersNeed(t *testing.T) {
	s := New(false)
	s.Base("x", ctr(0))
	s.Stage("T1", map[string]adt.State{"x": ctr(1)}, 0)
	s.Settle(1)
	for i := uint64(2); i <= 4; i++ {
		s.Stage("T", map[string]adt.State{"x": ctr(int64(i))}, i-1)
	}
	if got := headN(t, s, "x"); got != 1 {
		t.Fatalf("Head = %d with three unsettled publications above the horizon, want 1", got)
	}
	p := s.Acquire()
	defer p.Release()
	if st, err := p.Read("x"); err != nil || st.(adt.Counter).N != 1 {
		t.Fatalf("pin at the horizon read %v, %v; want 1", st, err)
	}
	if n := s.Versions(); n != 4 {
		t.Fatalf("%d versions retained, want the horizon's and the three above it", n)
	}
}

// TestBaseUnderAnUnsettledPublication: an object registered while a
// commit is between stage and settle is readable at once, by Head and by
// a new pin, though both answer from below the latest sequence number.
func TestBaseUnderAnUnsettledPublication(t *testing.T) {
	s := New(false)
	s.Base("x", ctr(0))
	s.Stage("T1", map[string]adt.State{"x": ctr(1)}, 0)
	s.Base("late", ctr(7))
	if got := headN(t, s, "late"); got != 7 {
		t.Fatalf("Head(late) = %d, want 7", got)
	}
	p := s.Acquire()
	defer p.Release()
	if st, err := p.Read("late"); err != nil || st.(adt.Counter).N != 7 {
		t.Fatalf("pin at horizon %d read late = %v, %v; want 7", p.Seq(), st, err)
	}
	s.Stage("T2", map[string]adt.State{"late": ctr(8)}, 1)
	s.Settle(2)
	if got := headN(t, s, "late"); got != 8 {
		t.Fatalf("Head(late) = %d after a settled update, want 8", got)
	}
}

// TestHoldReadsAboveTheHorizon: a checkpoint's hold is taken at the
// latest publication, settled or not, and reads exactly the objects
// registered by then, in name order, at that sequence number — however
// many publications settle and trim after it. Released, it lets the
// trim pass.
func TestHoldReadsAboveTheHorizon(t *testing.T) {
	s := New(false)
	s.Base("y", ctr(0))
	s.Base("x", ctr(0))
	s.Stage("T1", map[string]adt.State{"x": ctr(1)}, 0)
	h := s.Hold()
	defer h.Release()
	s.Base("late", ctr(7))
	for i := uint64(2); i <= 4; i++ {
		s.Stage("T", map[string]adt.State{"x": ctr(int64(i)), "y": ctr(int64(i))}, i-1)
	}
	s.Settle(4)
	if got := headN(t, s, "x"); got != 4 {
		t.Fatalf("Head(x) = %d with every publication settled, want 4", got)
	}
	var got []string
	for x, st := range h.States {
		got = append(got, fmt.Sprintf("%s=%d", x, st.(adt.Counter).N))
	}
	if want := "x=1 y=0"; strings.Join(got, " ") != want {
		t.Fatalf("hold above the horizon read %v, want %s", got, want)
	}
	held := s.Versions()
	h.Release()
	s.Stage("T5", map[string]adt.State{"x": ctr(5)}, 4)
	s.Settle(5)
	if n := s.Versions(); n >= held {
		t.Fatalf("%d versions retained after the release, %d before it: the trim did not pass the hold", n, held)
	}
}

// TestPublishAllocatesNothingInSteadyState pins the non-durable commit
// path's share: the horizon bookkeeping must not cost Publish anything.
func TestPublishAllocatesNothingInSteadyState(t *testing.T) {
	s := New(false)
	s.Base("x", ctr(0))
	up := map[string]adt.State{"x": ctr(1)}
	s.Publish("T", up)
	if n := testing.AllocsPerRun(200, func() { s.Publish("T", up) }); n != 0 {
		t.Fatalf("Publish allocates %.1f per call, want 0", n)
	}
	s.Stage("T", up, 0)
	s.Settle(1)
	if n := testing.AllocsPerRun(200, func() { s.Stage("T", up, 0); s.Settle(1) }); n != 0 {
		t.Fatalf("Stage+Settle allocates %.1f per call, want 0", n)
	}
}

// TestRecordingStoreOrdersSettlesAndPins: the publication log carries
// the tick at which each publication settled and each read-only
// transaction the tick at which it pinned, one counter for both.
func TestRecordingStoreOrdersSettlesAndPins(t *testing.T) {
	s := New(true)
	s.Base("x", ctr(0))
	s.Stage("T1", map[string]adt.State{"x": ctr(1)}, 0)
	early := s.Begin(nil)
	s.Settle(1)
	s.Publish("T2", map[string]adt.State{"x": ctr(2)})
	late := s.Begin(nil)
	s.Stage("T3", map[string]adt.State{"x": ctr(3)}, 1) // never settles
	early.Close()
	late.Close()

	log, txs := s.Log(), s.TxLog()
	if len(log) != 3 || len(txs) != 2 {
		t.Fatalf("log has %d publications and %d transactions, want 3 and 2", len(log), len(txs))
	}
	if early.Seq() != 0 || late.Seq() != 2 {
		t.Fatalf("pins at %d and %d, want 0 and 2", early.Seq(), late.Seq())
	}
	if !(txs[0].Pinned < log[0].Settled && log[0].Settled < log[1].Settled && log[1].Settled < txs[1].Pinned) {
		t.Fatalf("ticks out of order: pin %d, settle %d, settle %d, pin %d",
			txs[0].Pinned, log[0].Settled, log[1].Settled, txs[1].Pinned)
	}
	if log[2].Settled != 0 {
		t.Fatalf("unsettled publication logged as settled at tick %d", log[2].Settled)
	}
}

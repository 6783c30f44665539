package clock

import (
	"sync"
	"testing"
	"time"
)

// TestVirtualDeadlineOrder: waiters fire in deadline order as time is
// advanced manually, and the timestamps delivered are the deadlines
// themselves, not wall time.
func TestVirtualDeadlineOrder(t *testing.T) {
	v := NewVirtual(time.Time{})
	t0 := v.Now()
	c50 := v.NewTimer(50 * time.Millisecond).C()
	c10 := v.NewTimer(10 * time.Millisecond).C()
	c20 := v.NewTimer(20 * time.Millisecond).C()

	if n := v.AdvanceToNext(); n != 1 {
		t.Fatalf("first advance fired %d, want 1", n)
	}
	select {
	case ts := <-c10:
		if got := ts.Sub(t0); got != 10*time.Millisecond {
			t.Fatalf("10ms waiter fired at +%v", got)
		}
	default:
		t.Fatal("10ms waiter did not fire first")
	}
	select {
	case <-c20:
		t.Fatal("20ms waiter fired early")
	case <-c50:
		t.Fatal("50ms waiter fired early")
	default:
	}

	if n := v.Advance(40 * time.Millisecond); n != 2 {
		t.Fatalf("advance(40ms) fired %d, want 2", n)
	}
	if ts := <-c20; ts.Sub(t0) != 50*time.Millisecond {
		// Advance jumps straight to +50ms; the 20ms waiter observes the
		// clock at fire time.
		t.Fatalf("20ms waiter saw +%v, want +50ms", ts.Sub(t0))
	}
	<-c50
	if v.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", v.Pending())
	}
}

// TestVirtualSleepAutoAdvance: with the auto-advance driver running, a
// long virtual sleep returns promptly in wall time and virtual time has
// moved exactly to the deadline.
func TestVirtualSleepAutoAdvance(t *testing.T) {
	v := NewVirtual(time.Time{})
	defer v.Stop()
	v.AutoAdvance()
	t0 := v.Now()
	start := time.Now()
	const d = 10 * time.Second // ten virtual seconds
	v.Sleep(d)
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("virtual sleep of %v took %v wall time", d, wall)
	}
	if got := v.Now().Sub(t0); got < d {
		t.Fatalf("virtual time advanced %v, want >= %v", got, d)
	}
}

// TestVirtualTimerStop: a stopped timer neither fires nor corrupts the
// heap for its neighbours.
func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual(time.Time{})
	tm := v.NewTimer(10 * time.Millisecond)
	keep := v.NewTimer(20 * time.Millisecond).C()
	if !tm.Stop() {
		t.Fatal("Stop reported already fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported success")
	}
	v.Advance(30 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	select {
	case <-keep:
	default:
		t.Fatal("surviving waiter did not fire")
	}
}

// TestVirtualStopReleasesSleepers: Stop unblocks every parked sleeper —
// simulation teardown must not strand goroutines.
func TestVirtualStopReleasesSleepers(t *testing.T) {
	v := NewVirtual(time.Time{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Sleep(time.Hour)
		}()
	}
	for v.Pending() < 8 {
		time.Sleep(100 * time.Microsecond)
	}
	v.Stop()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sleepers still parked after Stop")
	}
	// After Stop, new sleeps return immediately instead of parking.
	v.Sleep(time.Hour)
}

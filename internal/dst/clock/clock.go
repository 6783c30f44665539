// Package clock is the simulator's time source: [Virtual], an
// event-queue implementation of the runtime's clock.Clock interface
// (nestedtx/internal/clock).
//
// This package is on the tools side of the layering line: only the
// deterministic simulator (internal/dst) and tests import it, and nothing
// reachable from nestedtx, nestedtx/client, internal/server or
// cmd/txserver may. The runtime sees a Virtual clock only as an injected
// clock.Clock: sleepers park on a deadline heap and time jumps from
// deadline to deadline instead of passing, so a seeded simulation run no
// longer depends on wall-clock scheduling accidents (a 100ms backoff is a
// number, not a real delay), and simulated runs are much faster than
// real time.
package clock

import (
	"container/heap"
	"sync"
	"time"

	"nestedtx/internal/clock"
)

// Virtual is event-queue time: sleepers park on a min-heap of absolute
// deadlines, and time advances only by [Virtual.Advance] jumps — either
// explicit ones from a test, or the auto-advance loop a simulation runs
// ([Virtual.AutoAdvance]), which repeatedly jumps to the earliest parked
// deadline whenever the system has sleepers but no wall-clock progress.
// Virtual timestamps delivered to sleepers are therefore functions of
// the requested durations alone, never of wall-time scheduling.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	stop    chan struct{}
	stopped bool
}

// NewVirtual returns a Virtual clock starting at start (a fixed epoch
// keeps simulated timestamps reproducible; the zero time is replaced by
// a fixed non-zero epoch so durations stay positive).
func NewVirtual(start time.Time) *Virtual {
	if start.IsZero() {
		start = time.Unix(1_000_000_000, 0) // 2001-09-09, arbitrary fixed epoch
	}
	return &Virtual{now: start, stop: make(chan struct{})}
}

type vwaiter struct {
	deadline time.Time
	ch       chan time.Time
	index    int
	stopped  bool
}

type waiterHeap []*vwaiter

func (h waiterHeap) Len() int           { return len(h) }
func (h waiterHeap) Less(i, j int) bool { return h[i].deadline.Before(h[j].deadline) }
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*vwaiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// addWaiter parks a waiter on the heap for virtual time now+d and
// returns it with the channel its firing is delivered on. d <= 0 (or a
// stopped clock) fires at once.
func (v *Virtual) addWaiter(d time.Duration) (*vwaiter, chan time.Time) {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	w := &vwaiter{deadline: v.now.Add(d), ch: ch, index: -1}
	if d <= 0 || v.stopped {
		now := v.now
		v.mu.Unlock()
		ch <- now
		return w, ch
	}
	heap.Push(&v.waiters, w)
	v.mu.Unlock()
	return w, ch
}

// Sleep blocks until virtual time reaches now+d (or the clock is
// stopped, which releases every sleeper — a simulation teardown must
// not leave goroutines parked forever).
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	_, ch := v.addWaiter(d)
	select {
	case <-ch:
	case <-v.stop:
	}
}

// NewTimer returns a timer firing once virtual time reaches now+d.
func (v *Virtual) NewTimer(d time.Duration) clock.Timer {
	w, ch := v.addWaiter(d)
	return &virtTimer{v: v, w: w, ch: ch}
}

type virtTimer struct {
	v  *Virtual
	w  *vwaiter
	ch chan time.Time
}

func (t *virtTimer) C() <-chan time.Time { return t.ch }

func (t *virtTimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	if t.w.stopped || t.w.index < 0 {
		return false
	}
	t.w.stopped = true
	if t.w.index < len(t.v.waiters) {
		heap.Remove(&t.v.waiters, t.w.index)
	}
	t.w.index = -1
	return true
}

// Pending returns the number of parked sleepers.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

// Advance moves virtual time forward by d, firing every waiter whose
// deadline is reached, and returns how many fired.
func (v *Virtual) Advance(d time.Duration) int {
	v.mu.Lock()
	target := v.now.Add(d)
	return v.advanceToLocked(target)
}

// AdvanceToNext jumps virtual time to the earliest parked deadline and
// fires everything due there. It returns the number of waiters fired (0
// when nothing is parked).
func (v *Virtual) AdvanceToNext() int {
	v.mu.Lock()
	if len(v.waiters) == 0 {
		v.mu.Unlock()
		return 0
	}
	target := v.waiters[0].deadline
	if target.Before(v.now) {
		target = v.now
	}
	return v.advanceToLocked(target)
}

// advanceToLocked advances to target and fires due waiters. Called with
// mu held; releases it.
func (v *Virtual) advanceToLocked(target time.Time) int {
	if target.After(v.now) {
		v.now = target
	}
	var due []*vwaiter
	for len(v.waiters) > 0 && !v.waiters[0].deadline.After(v.now) {
		w := heap.Pop(&v.waiters).(*vwaiter)
		w.index = -1
		due = append(due, w)
	}
	now := v.now
	v.mu.Unlock()
	for _, w := range due {
		w.ch <- now // cap-1 channel: never blocks
	}
	return len(due)
}

// autoAdvanceGrain is how often (in real time) AutoAdvance polls.
const autoAdvanceGrain = 100 * time.Microsecond

// AutoAdvance starts the simulation's time driver: a background loop
// that polls every autoAdvanceGrain of real time and, when sleepers are
// parked, jumps virtual time to the earliest deadline. The real grain
// only controls how promptly virtual time advances — the virtual
// timestamps assigned are the deadlines themselves, so they are
// independent of wall-clock scheduling. Call Stop to end the loop and
// release all sleepers.
func (v *Virtual) AutoAdvance() {
	go func() {
		for {
			select {
			case <-v.stop:
				return
			default:
			}
			time.Sleep(autoAdvanceGrain)
			v.AdvanceToNext()
		}
	}()
}

// Stop ends auto-advance and releases every current and future sleeper
// immediately (their channels fire at the current virtual time). Safe to
// call more than once.
func (v *Virtual) Stop() {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		return
	}
	v.stopped = true
	close(v.stop)
	var due []*vwaiter
	for len(v.waiters) > 0 {
		w := heap.Pop(&v.waiters).(*vwaiter)
		w.index = -1
		due = append(due, w)
	}
	now := v.now
	v.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}

package snap

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nestedtx/internal/adt"
	"nestedtx/internal/obs"
)

func ctr(n int64) adt.State { return adt.Counter{N: n} }

func TestPublishAndRead(t *testing.T) {
	s := New(false)
	s.Base("x", ctr(0))
	s.Base("y", ctr(100))

	p0 := s.Acquire()
	seq1 := s.Publish("T1", map[string]adt.State{"x": ctr(1)})
	if seq1 != 1 {
		t.Fatalf("first publication got seq %d, want 1", seq1)
	}
	p1 := s.Acquire()
	s.Publish("T2", map[string]adt.State{"x": ctr(2), "y": ctr(200)})
	p2 := s.Acquire()

	cases := []struct {
		pin  *Pin
		x, y int64
	}{
		{p0, 0, 100},
		{p1, 1, 100},
		{p2, 2, 200},
	}
	for i, c := range cases {
		for obj, want := range map[string]int64{"x": c.x, "y": c.y} {
			st, err := c.pin.Read(obj)
			if err != nil {
				t.Fatalf("pin %d read %s: %v", i, obj, err)
			}
			if got := st.(adt.Counter).N; got != want {
				t.Errorf("pin %d (seq %d) read %s = %d, want %d", i, c.pin.Seq(), obj, got, want)
			}
		}
	}
	p0.Release()
	p1.Release()
	p2.Release()
}

// TestFirstPublishLeavesItsNeighboursAlone: Base cuts objects from one
// chunk, each with its first version inside it, so the chains of objects
// based one after another are adjacent.
// Publishing to the middle one, twice with a pin held in between, must
// leave both neighbours' versions, and every pin's view, as they were.
func TestFirstPublishLeavesItsNeighboursAlone(t *testing.T) {
	s := New(false)
	s.Base("a", ctr(0))
	s.Base("b", ctr(10))
	s.Base("c", ctr(20))
	p0 := s.Acquire()
	s.Publish("T1", map[string]adt.State{"b": ctr(11)})
	p1 := s.Acquire()
	s.Publish("T2", map[string]adt.State{"b": ctr(12)})
	p2 := s.Acquire()
	cases := []struct {
		pin     *Pin
		a, b, c int64
	}{
		{p0, 0, 10, 20},
		{p1, 0, 11, 20},
		{p2, 0, 12, 20},
	}
	for _, c := range cases {
		for obj, want := range map[string]int64{"a": c.a, "b": c.b, "c": c.c} {
			st, err := c.pin.Read(obj)
			if err != nil {
				t.Fatalf("pin %d read %s: %v", c.pin.Seq(), obj, err)
			}
			if got := st.(adt.Counter).N; got != want {
				t.Errorf("pin %d read %s = %d, want %d", c.pin.Seq(), obj, got, want)
			}
		}
	}
	for obj, want := range map[string]int64{"a": 0, "b": 12, "c": 20} {
		st, err := s.Head(obj)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.(adt.Counter).N; got != want {
			t.Errorf("Head(%s) = %d, want %d", obj, got, want)
		}
	}
	p0.Release()
	p1.Release()
	p2.Release()
}

// TestWriteNobodyReadsBehindHoldsNothing: a publication that no pin and
// no unsettled publication can read behind overwrites a one-version chain
// where it lies, in the record's own first slot, so writing each of
// 65,536 objects once holds no byte and makes no allocation. Copying each
// chain out into a two-version array held 48 B and made one allocation
// per object. A pinned or unsettled publication still keeps the old
// version beside the new, for the reader behind it.
func TestWriteNobodyReadsBehindHoldsNothing(t *testing.T) {
	const objects = 1 << 16
	s := New(false)
	names := make([]string, objects)
	states := make([]adt.State, 2*objects) // boxed up front, and kept
	for i := range names {
		names[i] = fmt.Sprintf("c%05d", i)
		states[2*i], states[2*i+1] = ctr(int64(i)+1000), ctr(int64(i)+2000)
		s.Base(names[i], states[2*i])
	}
	up := map[string]adt.State{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, x := range names {
		clear(up)
		up[x] = states[2*i+1]
		s.Publish("T", up)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / objects
	mallocs := float64(after.Mallocs-before.Mallocs) / objects
	t.Logf("one write to each of %d objects: %.1f B held and %.3f mallocs per object", objects, held, mallocs)
	if held > 2 || mallocs > 0.01 {
		t.Errorf("one write per object holds %.1f B and makes %.3f mallocs per object, budget 2 B and 0.01", held, mallocs)
	}
	runtime.KeepAlive(states)
	if n := s.Versions(); n != objects {
		t.Fatalf("%d versions after one write to each of %d objects, want one each", n, objects)
	}
	for i, x := range names[:3] {
		if st, err := s.Head(x); err != nil || st != states[2*i+1] {
			t.Fatalf("Head(%s) = %v, %v; want %v", x, st, err, states[2*i+1])
		}
	}

	// Behind a pin, and behind an unsettled publication, the old version
	// stays.
	p := s.Acquire()
	s.Publish("T", map[string]adt.State{names[0]: ctr(7)})
	if st, _ := p.Read(names[0]); st != states[1] {
		t.Fatalf("a pin taken before the write reads %v, want %v", st, states[1])
	}
	p.Release()
	s.Stage("T", map[string]adt.State{names[1]: ctr(8)}, 1)
	if st, _ := s.Head(names[1]); st != states[3] {
		t.Fatalf("Head reads %v behind an unsettled write, want %v", st, states[3])
	}
	if n := s.Versions(); n != objects+2 {
		t.Fatalf("%d versions after a pinned and an unsettled write, want %d", n, objects+2)
	}
	s.Settle(2)
	if st, _ := s.Head(names[1]); st != ctr(8) {
		t.Fatalf("Head reads %v once the write settled, want %v", st, ctr(8))
	}
}

// TestPinNamesItselfOnlyWhenAsked: a read-only transaction keeps its
// number and formats S<n> for ID, for an error, for a recording store's
// log and for a trace, and only for a trace when its metrics have a
// tracer: an untraced pin allocates its Tx and nothing else.
func TestPinNamesItselfOnlyWhenAsked(t *testing.T) {
	s := New(true)
	s.Base("x", ctr(300))
	met := &obs.Metrics{Tracer: obs.NewTracer(8)}
	for range 101 {
		s.Begin(nil).Close()
	}
	tx := s.Begin(met)
	if id := tx.ID(); id != "S101" {
		t.Fatalf("the 102nd read-only transaction is %q, want S101", id)
	}
	if _, err := tx.Read("y", adt.CtrGet{}); err == nil || !strings.Contains(err.Error(), "S101") {
		t.Fatalf("a read of an unknown object fails with %v, want it to name S101", err)
	}
	tx.Close()
	var traced []string
	for _, e := range met.Tracer.Dump() {
		traced = append(traced, e.Kind+" "+e.T)
	}
	if want := []string{"SNAP_BEGIN S101", "SNAP_END S101"}; !slices.Equal(traced, want) {
		t.Fatalf("traced %q, want %q", traced, want)
	}
	if log := s.TxLog(); len(log) != 102 || log[101].ID != "S101" {
		t.Fatalf("the log holds %d transactions, the last %+v; want 102, the last S101", len(log), log[len(log)-1])
	}

	untraced := New(false)
	untraced.Base("x", ctr(300))
	quiet := new(obs.Metrics)
	for range 200 {
		untraced.Begin(quiet).Close()
	}
	if n := testing.AllocsPerRun(100, func() { untraced.Begin(quiet).Close() }); n != 1 {
		t.Fatalf("an untraced pin allocates %.1f, want its Tx alone", n)
	}
}

// TestObjectChunkFillsItsSizeClass: a chunk of objectChunk records and
// the 8-byte header Go puts before a pointerful object of over 512 B fit
// the 8,192-byte size class, and one record more would not.
func TestObjectChunkFillsItsSizeClass(t *testing.T) {
	size := int(reflect.TypeOf(Object{}).Size())
	if n := objectChunk*size + 8; n > 8192 {
		t.Errorf("a chunk of %d %d-byte records is %d B with its header, past the 8,192-byte class", objectChunk, size, n)
	}
	if n := (objectChunk+1)*size + 8; n <= 8192 {
		t.Errorf("a chunk of %d %d-byte records would still fit the 8,192-byte class", objectChunk+1, size)
	}
}

// TestOrderChunkFillsItsSizeClass: a registration-order chunk of
// orderChunk pointers is past 512 B, so Go puts its 8-byte header before
// it, and the two fill the 1,024-byte size class exactly.
func TestOrderChunkFillsItsSizeClass(t *testing.T) {
	size := int(reflect.TypeOf([orderChunk]*Object{}).Size())
	if size <= 512 {
		t.Errorf("a chunk of %d pointers is %d B, not past 512 B", orderChunk, size)
	}
	if n := size + 8; n != 1024 {
		t.Errorf("a chunk of %d pointers is %d B with its header, want the 1,024-byte class filled", orderChunk, n)
	}
}

// TestBaseTwicePanics: a name is based once; a second Base of it is a
// programming error, caught by the same index insert that installs it.
// The refused Base leaves the first version, the registration order and
// the slot it was cut from as they were.
func TestBaseTwicePanics(t *testing.T) {
	s := New(false)
	s.Base("x", ctr(0))
	func() {
		defer func() {
			if r := recover(); r != "snap: object x re-based" {
				t.Fatalf("a second Base of x panicked with %v", r)
			}
		}()
		s.Base("x", ctr(1))
	}()
	s.Base("y", ctr(2))
	h := s.Hold()
	defer h.Release()
	var got []string
	for x, st := range h.States {
		got = append(got, fmt.Sprintf("%s=%d", x, st.(adt.Counter).N))
	}
	if want := "x=0 y=2"; strings.Join(got, " ") != want {
		t.Fatalf("after a refused re-base the store holds %v, want %s", got, want)
	}
}

// TestPublishOfAnUnbasedObjectPanics: a publication names only objects
// Base installed. One that names another would make a chain no hold
// lists, which a checkpoint would drop, so Publish and Stage both refuse
// it as the bug it is.
func TestPublishOfAnUnbasedObjectPanics(t *testing.T) {
	for name, publish := range map[string]func(*Store){
		"Publish": func(s *Store) { s.Publish("T1", map[string]adt.State{"ghost": ctr(1)}) },
		"Stage":   func(s *Store) { s.Stage("T1", map[string]adt.State{"ghost": ctr(1)}, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			s := New(false)
			s.Base("x", ctr(0))
			defer func() {
				if r := recover(); r != "snap: object ghost published but never based" {
					t.Fatalf("%s of an unbased object panicked with %v", name, r)
				}
			}()
			publish(s)
		})
	}
}

// TestHoldListsEveryObjectAcrossChunks: a hold reads exactly the objects
// based before it, in name order, however many chunks of the
// registration order they span and however many are based after it; an
// older hold read after a newer one still reads only its own.
func TestHoldListsEveryObjectAcrossChunks(t *testing.T) {
	s := New(false)
	names := func(lo, hi int) []string {
		var out []string
		for i := lo; i < hi; i++ {
			out = append(out, fmt.Sprintf("o%04d", (i*7)%10000))
		}
		return out
	}
	for _, x := range names(0, 200) {
		s.Base(x, ctr(0))
	}
	older := s.Hold()
	defer older.Release()
	for _, x := range names(200, 3*orderChunk+1) {
		s.Base(x, ctr(0))
	}
	newer := s.Hold()
	defer newer.Release()
	read := func(h *Hold) []string {
		var out []string
		for x := range h.States {
			out = append(out, x)
		}
		return out
	}
	for _, c := range []struct {
		h    *Hold
		want []string
	}{
		{newer, names(0, 3*orderChunk+1)},
		{older, names(0, 200)},
		{newer, names(0, 3*orderChunk+1)},
	} {
		slices.Sort(c.want)
		if got := read(c.h); !slices.Equal(got, c.want) {
			t.Fatalf("a hold of %d objects read %d: %v", len(c.want), len(got), got)
		}
	}
}

func TestPinIsolatedFromLaterPublishes(t *testing.T) {
	s := New(false)
	s.Base("x", ctr(0))
	p := s.Acquire()
	for i := 1; i <= 10; i++ {
		s.Publish("T", map[string]adt.State{"x": ctr(int64(i))})
	}
	st, err := p.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(adt.Counter).N; got != 0 {
		t.Fatalf("pinned read moved: got %d, want 0", got)
	}
	p.Release()
}

func TestLateRegistrationInvisibleToOlderPins(t *testing.T) {
	s := New(false)
	s.Base("x", ctr(0))
	p := s.Acquire()
	s.Publish("T1", map[string]adt.State{"x": ctr(1)})
	s.Base("late", ctr(7))
	if _, err := p.Read("late"); err == nil {
		t.Fatal("pin taken before registration read the late object")
	}
	q := s.Acquire()
	st, err := q.Read("late")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(adt.Counter).N; got != 7 {
		t.Fatalf("late object read %d, want 7", got)
	}
	p.Release()
	q.Release()
}

func TestTrimBoundedByLivePin(t *testing.T) {
	s := New(false)
	s.Base("x", ctr(0))
	p := s.Acquire() // pins seq 0 forever (until released)
	for i := 1; i <= 100; i++ {
		s.Publish("T", map[string]adt.State{"x": ctr(int64(i))})
	}
	if got := s.Versions(); got != 101 {
		t.Fatalf("with a seq-0 pin live, %d versions retained, want all 101", got)
	}
	p.Release()
	// Next publish trims everything below the (now unpinned) floor.
	s.Publish("T", map[string]adt.State{"x": ctr(101)})
	if got := s.Versions(); got > 2 {
		t.Fatalf("after release, %d versions retained, want ≤ 2", got)
	}
	// The latest state survives the trim.
	q := s.Acquire()
	st, err := q.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(adt.Counter).N; got != 101 {
		t.Fatalf("post-trim read %d, want 101", got)
	}
	q.Release()
}

func TestReleaseIdempotent(t *testing.T) {
	s := New(false)
	s.Base("x", ctr(0))
	p := s.Acquire()
	q := s.Acquire()
	p.Release()
	p.Release()
	if got := s.Pinned(); got != 1 {
		t.Fatalf("double release corrupted the pin count: %d live, want 1", got)
	}
	q.Release()
	if got := s.Pinned(); got != 0 {
		t.Fatalf("%d pins live after releasing all, want 0", got)
	}
}

func TestPublicationLog(t *testing.T) {
	s := New(true)
	s.Base("x", ctr(0))
	s.Publish("T1", map[string]adt.State{"x": ctr(1)})
	s.Publish("T2", map[string]adt.State{"x": ctr(2)})
	log := s.Log()
	if len(log) != 2 {
		t.Fatalf("log has %d entries, want 2", len(log))
	}
	for i, e := range log {
		if e.Seq != uint64(i+1) {
			t.Errorf("log[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if log[0].Top != "T1" || log[1].Top != "T2" {
		t.Errorf("log tops = %s, %s; want T1, T2", log[0].Top, log[1].Top)
	}
	if got := log[1].Updates["x"].(adt.Counter).N; got != 2 {
		t.Errorf("log[1] update = %d, want 2", got)
	}
}

func TestConcurrentPublishRead(t *testing.T) {
	s := New(false)
	const objs = 8
	for i := 0; i < objs; i++ {
		s.Base(fmt.Sprintf("x%d", i), ctr(0))
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writer: each publication bumps every object to the same value, so
	// any pinned read must see one consistent cut (all objects equal).
	writers.Add(1)
	go func() {
		defer writers.Done()
		for v := int64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			up := make(map[string]adt.State, objs)
			for i := 0; i < objs; i++ {
				up[fmt.Sprintf("x%d", i)] = ctr(v)
			}
			s.Publish("T", up)
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; k < 200; k++ {
				p := s.Acquire()
				var first int64 = -1
				for i := 0; i < objs; i++ {
					st, err := p.Read(fmt.Sprintf("x%d", i))
					if err != nil {
						t.Error(err)
						break
					}
					n := st.(adt.Counter).N
					if first == -1 {
						first = n
					} else if n != first {
						t.Errorf("torn snapshot at seq %d: x0=%d x%d=%d", p.Seq(), first, i, n)
						break
					}
				}
				p.Release()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if got := s.Pinned(); got != 0 {
		t.Fatalf("%d pins leaked", got)
	}
}

// pinnedStore returns a store of one object beside n live pins at n
// distinct sequence numbers, pin i at seq i reading version i.
func pinnedStore(n int) (*Store, []*Pin) {
	s := New(false)
	s.Base("x", ctr(0))
	pins := make([]*Pin, n)
	for i := range pins {
		pins[i] = s.Acquire()
		s.Publish("T", map[string]adt.State{"x": ctr(int64(i + 1))})
	}
	return s, pins
}

// TestPublishBesideTwentyThousandPins: a publication finds the oldest pin
// at the head of a queue and its cut in a chain by binary search, so what
// it costs does not depend on how many readers are live. The bound is a
// scan's cost with room to spare: ranging over 20,000 pins and walking
// their 20,000 versions on every commit takes 10,000 publishes 2.3 s
// (E25); without the scans they take 4 ms, -race 20 ms.
func TestPublishBesideTwentyThousandPins(t *testing.T) {
	const pins, publishes, bound = 20_000, 10_000, time.Second
	s, live := pinnedStore(pins)
	up := map[string]adt.State{"x": ctr(-1)}
	start := time.Now()
	for i := 0; i < publishes; i++ {
		s.Publish("T", up)
	}
	d := time.Since(start)
	t.Logf("%d publishes beside %d pins: %v", publishes, pins, d)
	if d > bound {
		t.Fatalf("took %v, bound %v", d, bound)
	}
	if got := s.Versions(); got != pins+publishes+1 {
		t.Fatalf("%d versions retained under a seq-0 pin, want all %d", got, pins+publishes+1)
	}
	// Every reader still has its own view; released newest first, oldest
	// first or from the middle, the rest keep theirs and history goes.
	for i, p := range live {
		if st, err := p.Read("x"); err != nil || st != ctr(int64(i)) {
			t.Fatalf("pin %d reads %v, %v; want %v", i, st, err, ctr(int64(i)))
		}
		if i%3 != 0 {
			p.Release()
		}
	}
	if got := s.Pinned(); got != (pins+2)/3 {
		t.Fatalf("%d pins live, want %d", got, (pins+2)/3)
	}
	for i := 0; i < pins; i += 3 {
		if st, _ := live[i].Read("x"); st != ctr(int64(i)) {
			t.Fatalf("pin %d reads %v after its neighbours left, want %v", i, st, ctr(int64(i)))
		}
		live[i].Release()
	}
	s.Publish("T", up)
	if p, v := s.Pinned(), s.Versions(); p != 0 || v > 2 {
		t.Fatalf("at rest %d pins and %d versions, want 0 and at most 2", p, v)
	}
}

// TestTrimFollowsTheOldestLivePin releases pins out of order between
// publications: history is cut at the oldest pin still live, whether the
// pins below it left before or after the ones above.
func TestTrimFollowsTheOldestLivePin(t *testing.T) {
	s, live := pinnedStore(8) // seqs 0..7, the store at 8: 9 versions
	up := map[string]adt.State{"x": ctr(-1)}
	for _, step := range []struct{ release, versions int }{
		{3, 10}, // a middle pin: seq 0 still holds everything
		{0, 10}, // the head: cut at seq 1, one in, one out
		{2, 11}, // another below the new head's successor: no cut
		{1, 9},  // the head again: 2 and 3 are gone too, cut at seq 4
		{7, 10}, // the tail
	} {
		live[step.release].Release()
		s.Publish("T", up)
		if got := s.Versions(); got != step.versions {
			t.Fatalf("after releasing pin %d: %d versions, want %d", step.release, got, step.versions)
		}
	}
	for _, i := range []int{4, 5, 6} {
		if st, _ := live[i].Read("x"); st != ctr(int64(i)) {
			t.Fatalf("pin %d reads %v, want %v", i, st, ctr(int64(i)))
		}
		live[i].Release()
	}
	// A steady reader costs the queue nothing once it has its array.
	if n := testing.AllocsPerRun(100, func() { s.Acquire().Release() }); n > 1 {
		t.Fatalf("pin+release allocates %.1f, want the Pin alone", n)
	}
}

// BenchmarkPublishBesidePins measures one publication beside live pins at
// distinct sequence numbers (EXPERIMENTS.md E25).
func BenchmarkPublishBesidePins(b *testing.B) {
	for _, pins := range []int{0, 1000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("pins=%d", pins), func(b *testing.B) {
			s, _ := pinnedStore(pins)
			up := map[string]adt.State{"x": ctr(-1)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Publish("T", up)
			}
		})
	}
}

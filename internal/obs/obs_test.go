package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 38, NumBuckets - 1}, {1 << 45, NumBuckets - 1}, {int64(^uint64(0) >> 1), NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Bucket bounds partition the axis: upper(i-1) < 2^(i-1) <= upper(i).
	for i := 1; i < NumBuckets-1; i++ {
		lo := int64(1) << uint(i-1)
		if bucketUpper(i-1) >= lo || bucketUpper(i) < lo {
			t.Errorf("bucket %d bounds wrong: upper(i-1)=%d lower=%d upper=%d",
				i, bucketUpper(i-1), lo, bucketUpper(i))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(50); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	// 100 observations of 1µs, one of 1ms: p50 and p90 sit in the 1µs
	// bucket, p99.5+ and Max see the outlier.
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 101 {
		t.Fatalf("count = %d, want 101", s.Count)
	}
	if s.Max != time.Millisecond {
		t.Fatalf("max = %v, want 1ms", s.Max)
	}
	p50, p90, p99, max := s.Quantile(50), s.Quantile(90), s.Quantile(99), s.Quantile(100)
	if p50 < time.Microsecond || p50 >= 2*time.Microsecond {
		t.Errorf("p50 = %v, want within the 1µs bucket", p50)
	}
	if p50 > p90 || p90 > p99 || p99 > max {
		t.Errorf("quantiles not monotone: p50=%v p90=%v p99=%v max=%v", p50, p90, p99, max)
	}
	if max != time.Millisecond {
		t.Errorf("Quantile(100) = %v, want observed max 1ms", max)
	}
	if got := s.Mean(); got < time.Microsecond || got > 12*time.Microsecond {
		t.Errorf("mean = %v, want ~10.9µs", got)
	}
	// Quantile estimates are clamped to the observed max (never invent
	// latencies above what happened).
	var one Histogram
	one.Observe(3 * time.Nanosecond)
	if got := one.Snapshot().Quantile(99); got != 3*time.Nanosecond {
		t.Errorf("single-sample p99 = %v, want clamped to max 3ns", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d (lost updates)", s.Count, workers*per)
	}
	if s.Max != time.Duration(7999)*time.Nanosecond {
		t.Fatalf("max = %v, want 7999ns", s.Max)
	}
	if h.Count() != workers*per {
		t.Fatalf("Count() = %d, want %d", h.Count(), workers*per)
	}
}

func TestTracerRingWrapAround(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Trace("COMMIT", fmt.Sprintf("T0.%d", i), "", 0)
	}
	got := tr.Dump()
	if len(got) != 4 {
		t.Fatalf("dump length = %d, want capacity 4", len(got))
	}
	for i, e := range got {
		wantSeq := uint64(7 + i) // entries 7..10 survive
		if e.Seq != wantSeq {
			t.Errorf("entry %d seq = %d, want %d (oldest-first order)", i, e.Seq, wantSeq)
		}
		if want := fmt.Sprintf("T0.%d", 6+i); e.T != want {
			t.Errorf("entry %d T = %q, want %q", i, e.T, want)
		}
	}
}

// TestTracerKeepsACopyOfTheName: a transaction's name is a string over
// memory of its Tx, and the ring copies it rather than keep the Tx alive.
// Here the traced name's bytes change after Trace; the entry does not.
func TestTracerKeepsACopyOfTheName(t *testing.T) {
	tr := NewTracer(2)
	b := []byte("T0.5")
	tr.Trace("CREATE", unsafe.String(unsafe.SliceData(b), len(b)), "", 0)
	b[3] = '6'
	if got := tr.Dump()[0].T; got != "T0.5" {
		t.Errorf("traced name reads %q after its source changed, want T0.5", got)
	}
}

func TestTracerPartialAndConcurrent(t *testing.T) {
	tr := NewTracer(1024)
	tr.Trace(KindLockWait, "T0.1", "x", 0)
	tr.Trace(KindLockAcquire, "T0.1", "x", 5*time.Millisecond)
	got := tr.Dump()
	if len(got) != 2 || got[0].Kind != KindLockWait || got[1].Kind != KindLockAcquire {
		t.Fatalf("partial dump wrong: %+v", got)
	}
	if got[1].Dur != 5*time.Millisecond || got[1].Object != "x" {
		t.Fatalf("entry fields lost: %+v", got[1])
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Trace("CREATE", "T0.9", "", 0)
			}
		}()
	}
	wg.Wait()
	d := tr.Dump()
	if len(d) != 1024 {
		t.Fatalf("full ring dump = %d entries, want 1024", len(d))
	}
	for i := 1; i < len(d); i++ {
		if d[i].Seq != d[i-1].Seq+1 {
			t.Fatalf("dump not in sequence order at %d: %d then %d", i, d[i-1].Seq, d[i].Seq)
		}
	}
}

func TestNilSafety(t *testing.T) {
	// A component handed no registry gets one of its own from Or.
	var given Metrics
	if Or(&given) != &given {
		t.Fatal("Or replaced a registry it was given")
	}
	m := Or(nil)
	m.ObserveTx(time.Second, true)
	m.Trace("CREATE", "T0.1", "", 0)
	m.AddShardQueued(0, 1) // gauges never sized: ignored
	if s := m.Snapshot(); s.TxCommits != 1 || s.ShardQueued != nil {
		t.Fatalf("Or(nil) registry snapshot = %+v", s)
	}
	if s := Or(nil).Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Fatalf("fresh registry snapshot = %+v, want zero (Or(nil) must not share)", s)
	}
	var tr *Tracer
	tr.Trace("CREATE", "T0.1", "", 0)
	if tr.Dump() != nil {
		t.Fatal("nil Tracer not inert")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 {
		t.Fatal("nil Histogram not inert")
	}
	// A Metrics with no tracer silently drops traces but keeps metrics.
	var real Metrics
	real.Trace("CREATE", "T0.1", "", 0)
	real.ObserveTx(time.Millisecond, false)
	if s := real.Snapshot(); s.TxAborts != 1 || s.TxLatency.Count != 1 {
		t.Fatalf("tracerless Metrics lost observations: %+v", s)
	}
}

func TestMetricsSnapshotVictims(t *testing.T) {
	var m Metrics
	m.VictimsDeadlock.Add(3)
	m.VictimsCancelled.Add(2)
	m.QueuedWaiters.Add(5)
	m.QueuedWaiters.Add(-1)
	m.ContendedObjects.Set(2)
	s := m.Snapshot()
	if s.Victims != 5 || s.VictimsDeadlock != 3 || s.VictimsCancelled != 2 {
		t.Fatalf("victim accounting wrong: %+v", s)
	}
	if s.QueuedWaiters != 4 || s.ContendedObjects != 2 {
		t.Fatalf("gauges wrong: %+v", s)
	}
}

// TestEveryMetricIsInTheSnapshot pins "declared once": a Counter, Gauge
// or Histogram added to Metrics without its tagged twin in Snapshot, or
// without the line in Snapshot() that copies it, fails here — the wire,
// the server and the client carry whatever Snapshot holds with no edit.
func TestEveryMetricIsInTheSnapshot(t *testing.T) {
	var m Metrics
	mv := reflect.ValueOf(&m).Elem()
	var metrics []string
	for i := 0; i < mv.NumField(); i++ {
		switch f := mv.Field(i).Addr().Interface().(type) {
		case *Counter:
			f.Add(7)
		case *Gauge:
			f.Set(7)
		case *Histogram:
			f.Observe(7)
		default:
			continue
		}
		metrics = append(metrics, mv.Type().Field(i).Name)
	}
	snap := reflect.ValueOf(m.Snapshot())
	for _, name := range metrics {
		if f := snap.FieldByName(name); !f.IsValid() {
			t.Errorf("Metrics.%s has no same-named field in Snapshot", name)
		} else if f.IsZero() {
			t.Errorf("Snapshot() does not fill %s", name)
		}
	}
	for _, typ := range []reflect.Type{snap.Type(), reflect.TypeFor[LockStats](), reflect.TypeFor[ServerCounters]()} {
		seen := make(map[string]bool)
		for i := 0; i < typ.NumField(); i++ {
			key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if key == "" || seen[key] {
				t.Errorf("%s.%s: json key %q is empty or used twice", typ.Name(), typ.Field(i).Name, key)
			}
			seen[key] = true
		}
	}
}

// TestHistSnapshotJSONRoundTrip: a histogram decoded from the wire is the
// histogram that was encoded — totals, maximum and every quantile — so
// the client computes quantiles with the server's own code. The wire
// object keeps the precomputed quantile members other readers parse.
func TestHistSnapshotJSONRoundTrip(t *testing.T) {
	hists := map[string]*Histogram{"empty": {}, "one bucket": {}, "overflow bucket": {}, "spread": {}}
	hists["one bucket"].Observe(1500 * time.Nanosecond)
	hists["one bucket"].Observe(1100 * time.Nanosecond)
	hists["overflow bucket"].Observe(time.Microsecond)
	hists["overflow bucket"].Observe(10 * time.Minute)
	for i := 0; i < 1000; i++ {
		hists["spread"].Observe(time.Duration(i*i) * time.Microsecond)
	}
	for name, h := range hists {
		want := h.Snapshot()
		raw, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got HistSnapshot
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, raw)
		}
		if got != want {
			t.Errorf("%s: round trip through %s\n got %+v\nwant %+v", name, raw, got, want)
		}
		var members map[string]any
		if err := json.Unmarshal(raw, &members); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for key, q := range map[string]time.Duration{"p50_ns": want.Quantile(50), "p90_ns": want.Quantile(90),
			"p99_ns": want.Quantile(99), "max_ns": want.Max, "sum_ns": want.Sum, "count": time.Duration(want.Count)} {
			if members[key] != float64(q) {
				t.Errorf("%s: wire member %s = %v, want %d", name, key, members[key], q)
			}
		}
	}
	// Out-of-range input from outside is an error, not a panic.
	var h HistSnapshot
	if err := json.Unmarshal([]byte(`{"count":1,"buckets":[`+strings.Repeat("0,", NumBuckets)+`1]}`), &h); err == nil {
		t.Error("a histogram with more buckets than NumBuckets decoded without error")
	}
}

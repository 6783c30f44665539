package main

import (
	"sort"
	"time"

	"nestedtx/internal/obs"
)

// quantile returns the p'th percentile (0–100) of sorted by the
// nearest-rank method; 0 when empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median of v, the mean of the middle two when len(v) is even; 0 when
// empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// per is a/b, and 0 when there was nothing to divide by: a layer that
// did no work reports 0, not NaN.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// zero reports the named metrics as 0: the layer did no work here.
func zero(m map[string]float64, names ...string) {
	for _, name := range names {
		m[name] = 0
	}
}

// windowTotals sums the clients' counts of the measured window.
type windowTotals struct {
	elapsed                                      time.Duration // the window as it really ran
	commits, withWrites, scans, failed, attempts int
	attempted                                    int       // top-level transactions begun, scans included
	commitLat                                    []float64 // committed locking transactions, µs, sorted
	scanLat                                      []float64 // completed scans, µs, sorted
	tracedLat, untracedLat                       []float64 // committed locking transactions by tracing, µs
	// Per slice of the window: commits per second and, over the slices
	// that committed something, process CPU per commit and the median
	// and 99th percentile of the commit latency, all in µs.
	sliceRate, sliceCPU, sliceP50, sliceP99 []float64
}

func (r *runData) sumWindow() windowTotals {
	t := windowTotals{elapsed: r.ticks[len(r.ticks)-1].at}
	perSlice := make([][]float64, len(r.ticks)-1) // commit latencies by slice
	for _, wk := range r.clients {
		t.commits += wk.commits
		t.withWrites += wk.withWrites
		t.failed += wk.failed
		t.attempts += wk.attempts
		t.attempted += len(wk.samples)
		slice := 0
		for _, s := range wk.samples {
			if s.failed {
				continue
			}
			lat := float64(s.lat) / 1e3
			if s.scan {
				t.scans++
				t.scanLat = append(t.scanLat, lat)
				continue
			}
			t.commitLat = append(t.commitLat, lat)
			if s.traced {
				t.tracedLat = append(t.tracedLat, lat)
			} else {
				t.untracedLat = append(t.untracedLat, lat)
			}
			// A worker's samples are in time order.
			for slice < len(perSlice)-1 && int64(s.endUS) >= r.ticks[slice+1].at.Microseconds() {
				slice++
			}
			perSlice[slice] = append(perSlice[slice], lat)
		}
	}
	for i, lats := range perSlice {
		from, to := r.ticks[i], r.ticks[i+1]
		n := float64(len(lats))
		t.sliceRate = append(t.sliceRate, n/(to.at-from.at).Seconds())
		if n > 0 {
			sort.Float64s(lats)
			t.sliceCPU = append(t.sliceCPU, us(to.cpu-from.cpu)/n)
			t.sliceP50 = append(t.sliceP50, quantile(lats, 50))
			t.sliceP99 = append(t.sliceP99, quantile(lats, 99))
		}
	}
	sort.Float64s(t.commitLat)
	sort.Float64s(t.scanLat)
	return t
}

// endToEnd computes what a user of the system would see, from an
// untraced run. Client and server (and the harness) share the process,
// so the CPU and allocation figures are of all three. Which of these
// BENCHMARK.json bounds, and why the timings are not among them, is in
// README.md; the rest are printed beside them.
func (r *runData) endToEnd(t windowTotals) map[string]float64 {
	commits := float64(t.commits)
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	b, a := &r.before, &r.after
	m := r.timings(t)
	m["setup_s"] = median(setups)
	m["allocs_per_tx"] = per(float64(a.mem.Mallocs-b.mem.Mallocs), commits)
	m["alloc_bytes_per_tx"] = per(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), commits)
	return m
}

// timings are the time-based figures of a window, traced or not.
// Throughput, CPU per transaction and the latency percentiles are
// medians over the window's slices, not whole-window figures: a median
// shrugs off the slices a collection or a noisy neighbour hit, where a
// mean keeps them.
func (r *runData) timings(t windowTotals) map[string]float64 {
	b, a := &r.before, &r.after
	return map[string]float64{
		"tx_per_s":             median(t.sliceRate),
		"commit_p50_us":        median(t.sliceP50),
		"commit_p99_us":        median(t.sliceP99),
		"cpu_us_per_tx":        median(t.sliceCPU),
		"steady_ratio":         t.steadyRatio(),
		"heap_growth_b_per_tx": per(float64(a.mem.HeapAlloc)-float64(b.mem.HeapAlloc), float64(t.commits)),
		"scan_p50_us":          quantile(t.scanLat, 50),
		"fail_ratio":           per(float64(t.failed), float64(t.attempted)),
	}
}

// steadyRatio is the throughput of the window's last third over that of
// its first third (medians of their slices): 1.0 is flat, below 1 the
// system slows down as it runs.
func (t windowTotals) steadyRatio() float64 {
	third := len(t.sliceRate) / 3
	return per(median(t.sliceRate[len(t.sliceRate)-third:]), median(t.sliceRate[:third]))
}

// histDelta is the histogram of what was observed between two
// snapshots (Max cannot be subtracted and stays the later one's).
func histDelta(before, after obs.HistSnapshot) obs.HistSnapshot {
	d := after
	d.Count -= before.Count
	d.Sum -= before.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	return d
}

// perLayer computes the single-layer metrics of a traced run: counter
// deltas over the window, medians of the harness spans, and the layer
// probes. A layer the workload does not use reports 0.
func (r *runData) perLayer(t windowTotals) map[string]float64 {
	commits := float64(t.commits)
	b, a := &r.before, &r.after
	delta := func(after, before uint64) float64 { return float64(after - before) }
	opLat := histDelta(b.obs.OpLatency, a.obs.OpLatency)
	lockWait := histDelta(b.obs.LockWait, a.obs.LockWait)
	fsync := histDelta(b.obs.FsyncLatency, a.obs.FsyncLatency)
	victims := delta(a.obs.VictimsDeadlock, b.obs.VictimsDeadlock)
	waits := delta(a.lock.Waits, b.lock.Waits)

	cl, em := r.trace, r.embedded
	do := func(st *traceStats) []float64 {
		return append(append([]float64(nil), st.dur[spDoRead]...), st.dur[spDoWrite]...)
	}
	m := map[string]float64{
		// What the clients saw, untraced against traced transactions of
		// this same window: throughput of a closed loop is clients /
		// mean latency, so the loss is 1 − untraced/traced latency.
		"bench.trace_overhead_pct":  100 * (1 - per(mean(t.untracedLat), mean(t.tracedLat))),
		"bench.generator_us_per_tx": r.generator,

		"nestedtx.begin_us":        median(em.dur[spBegin]),
		"nestedtx.do_us":           median(do(em)),
		"nestedtx.sub_overhead_us": median(em.self[spSub]),
		"nestedtx.commit_us":       median(em.dur[spCommit]),

		"lockmgr.acquires_per_tx":         per(delta(a.lock.Acquires, b.lock.Acquires), commits),
		"lockmgr.commit_moves_per_tx":     per(delta(a.lock.CommitMoves, b.lock.CommitMoves), commits),
		"lockmgr.abort_releases_per_tx":   per(delta(a.lock.AbortReleases, b.lock.AbortReleases), commits),
		"lockmgr.waits_per_tx":            per(waits, commits),
		"lockmgr.lock_wait_us_per_tx":     per(us(lockWait.Sum), commits),
		"lockmgr.wakeups_per_wait":        per(delta(a.lock.Wakeups, b.lock.Wakeups), waits),
		"lockmgr.spurious_wakeups_per_tx": per(delta(a.lock.SpuriousWakeups, b.lock.SpuriousWakeups), commits),
		"lockmgr.max_queue_depth":         float64(a.lock.MaxQueueDepth),
		"lockmgr.victims_per_tx":          per(victims, commits),
		"lockmgr.escalations_per_tx":      per(delta(a.lock.Escalations, b.lock.Escalations), commits),
		"lockmgr.commit_ratio":            per(commits, commits+victims),

		"snap.publishes_per_commit": per(delta(a.obs.SnapPublishes, b.obs.SnapPublishes), commits),
		"snap.reads_per_scan":       per(delta(a.obs.SnapReads, b.obs.SnapReads), float64(t.scans)),

		"wal.fsyncs_per_commit": per(delta(a.obs.WalFsyncs, b.obs.WalFsyncs), commits),
		"wal.fsync_p50_us":      us(fsync.Quantile(50)),
		"wal.fsync_p99_us":      us(fsync.Quantile(99)),
		"wal.max_batch":         float64(a.obs.WalMaxBatch),
	}
	m["nestedtx.do_self_us"] = m["nestedtx.do_us"] - r.probes["lockmgr.acquire_us"]
	if r.w.networked {
		m["client.begin_us"] = median(cl.dur[spBegin])
		m["client.do_us"] = median(do(cl))
		m["client.sub_us"] = median(cl.self[spSub])
		m["client.commit_us"] = median(cl.dur[spCommit])
		m["client.requests_per_tx"] = per(delta(a.calls, b.calls), commits)
		m["client.retries_per_tx"] = per(float64(t.attempts-t.commits-t.failed), commits)
		m["server.requests_per_tx"] = per(delta(a.srv.Requests, b.srv.Requests), commits)
		// Session dispatch + kernel + scheduling: what a round trip
		// costs beyond the manager's own work on the access.
		m["server.req_overhead_us"] = mean(do(cl)) - us(opLat.Mean())
	} else {
		zero(m, "client.begin_us", "client.do_us", "client.sub_us", "client.commit_us",
			"client.requests_per_tx", "client.retries_per_tx",
			"server.requests_per_tx", "server.req_overhead_us")
	}
	if r.w.durable {
		sum := 0.0
		for _, d := range r.checkpoints {
			sum += float64(d) / 1e6
		}
		m["wal.checkpoint_ms"] = per(sum, float64(len(r.checkpoints)))
		m["wal.recovered_records"] = float64(r.recovery.records)
		m["wal.recover_us_per_record"] = per(us(r.recovery.took), float64(r.recovery.records))
	} else {
		zero(m, "wal.checkpoint_ms", "wal.recovered_records", "wal.recover_us_per_record")
	}
	for name, v := range r.probes {
		m[name] = v
	}
	for name, v := range r.timings(t) {
		m[name] = v
	}
	return m
}

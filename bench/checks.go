package main

import (
	"fmt"

	"nestedtx"
)

// maxQuietWaits is the zero prediction for the workloads whose
// footprints are far smaller than their universe: lock waits per
// committed transaction stay below it (README.md has the arithmetic).
const maxQuietWaits = 0.02

// check runs every output check and reconciliation of a run and
// returns what failed; an empty slice is a correct run.
func (r *runData) check(t windowTotals) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	for _, wk := range r.workers {
		if wk.fatal != nil {
			fail("client stopped on: %v", wk.fatal)
		}
	}
	if r.checkpointEr != nil {
		fail("checkpoint: %v", r.checkpointEr)
	}

	// Final states equal the initial state plus what committed
	// transactions were told they changed.
	states := make(map[string]nestedtx.State, len(r.names))
	for _, name := range r.names {
		st, err := r.sys.mgr.State(name)
		if err != nil {
			fail("state of %s: %v", name, err)
			return bad
		}
		states[name] = st
	}
	r.checkStates("live manager", states, fail)
	if err := r.sys.mgr.CheckInvariants(); err != nil {
		fail("lock-table invariants: %v", err)
	}

	// Harness counts against the program's own, exact because both ends
	// of the window were read at rest.
	b, a := &r.before, &r.after
	exact := func(what string, got uint64, want int) {
		if got != uint64(want) {
			fail("%s: program counted %d, harness %d", what, got, want)
		}
	}
	exact("Metrics.TxCommits", a.obs.TxCommits-b.obs.TxCommits, t.commits)
	exact("snap_publishes vs commits with a write", a.obs.SnapPublishes-b.obs.SnapPublishes, t.withWrites)
	if r.w.networked {
		exact("Server.Counters().Commits", a.srv.Commits-b.srv.Commits, t.commits)
	}
	if r.w.durable {
		exact("wal_appends", a.obs.WalAppends-b.obs.WalAppends, t.commits)
	} else if a.obs.WalAppends+a.obs.WalFsyncs+a.obs.WalCheckpoints+a.obs.FsyncLatency.Count != 0 {
		fail("non-durable workload touched the WAL: appends %d, fsyncs %d, checkpoints %d",
			a.obs.WalAppends, a.obs.WalFsyncs, a.obs.WalCheckpoints)
	}

	// The universe shrinks with scale and the footprints do not, so the
	// wait prediction and the sample-count floor hold at full size only.
	if r.opts.scale == 1 {
		if waits := per(float64(a.lock.Waits-b.lock.Waits), float64(t.commits)); r.w.quiet && waits > maxQuietWaits {
			fail("predicted ≈ 0 lock waits, saw %.4f per transaction", waits)
		}
		if !r.opts.trace && len(t.commitLat) < 1000 {
			fail("commit_p99_us needs 1000 samples, got %d", len(t.commitLat))
		}
	}
	if t.commits == 0 {
		fail("no transaction committed")
	}
	if r.opts.trace {
		for _, st := range []*traceStats{r.trace, r.embedded} {
			if st.txs == 0 {
				fail("traced run recorded no tx span")
			} else if st.minCover < 0.9 {
				fail("children cover only %.1f%% of a tx span (%.1f%% overall)", 100*st.minCover, 100*st.coverage)
			}
		}
	}

	if r.w.durable {
		// Every acknowledged commit is in what a restart recovers.
		r.checkStates("recovered manager", r.recovery.states, fail)
		acked := 0
		for _, wk := range r.workers {
			acked += wk.acked
		}
		if logged := r.recovery.nextLSN - r.recovery.lsn0; logged < uint64(acked) {
			fail("recovery found %d commit records, clients were acknowledged %d", logged, acked)
		}
	}
	return bad
}

// checkStates compares states with the expected ones: counters and
// balances object by object, and the bank total.
func (r *runData) checkStates(where string, states map[string]nestedtx.State, fail func(string, ...any)) {
	var total, mismatches int64
	for i, name := range r.names {
		var want, got int64
		for _, wk := range r.workers {
			want += wk.tally[i]
		}
		switch st := states[name].(type) {
		case nestedtx.Counter:
			got = st.N
		case nestedtx.Account:
			want += bankBalance
			got = st.Balance
			total += st.Balance
		default:
			fail("%s: %s has unexpected state %v", where, name, states[name])
			return
		}
		if got != want {
			if mismatches == 0 {
				fail("%s: %s is %d, committed transactions add up to %d", where, name, got, want)
			}
			mismatches++
		}
	}
	if mismatches > 1 {
		fail("%s: %d objects differ from the committed tally", where, mismatches)
	}
	if _, bank := r.w.initial.(nestedtx.Account); bank && total != int64(len(r.names))*bankBalance {
		fail("%s: bank total %d, want %d", where, total, int64(len(r.names))*bankBalance)
	}
}

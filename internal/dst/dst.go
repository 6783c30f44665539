// Package dst is the deterministic whole-system simulator: one seed
// drives a virtual clock, a planned fault schedule and a planned
// workload over the full stack — embedded managers, durable managers
// over an in-memory fault-injecting file system, and a replicated
// leader/follower pair behind a faultnet proxy.
//
// # What "deterministic" means here
//
// The simulator determinizes every *decision plane*: the workload plan
// (which transactions, touching which objects, nested how deep), the
// fault plan (checkpoint times, partition windows, the kill-at-byte
// budget, the bit-rot draws) and virtual time (sleeps, backoffs and the
// WAL's batch-gather deadline park on a deadline heap instead of the
// wall clock). Two runs with the same seed therefore plan byte-identical
// work and byte-identical faults, and the event log — which records
// exactly the decision planes plus the final verdict — is
// byte-identical across runs.
//
// What is *not* replayed bit-for-bit is the goroutine interleaving of
// the execution itself: the Go scheduler still chooses which planned
// transaction wins each lock race. That residual nondeterminism is the
// system under test, and it is adjudicated the way the paper
// adjudicates it — every run ends by machine-checking the observed
// history against the S9 serial-correctness checker (Manager.Verify /
// Recovery.Verify), so any interleaving the locking discipline should
// have prevented fails the run regardless of which seed produced it.
//
// # What a crash is
//
// A crash scenario kills the device at a planned byte of the WAL's
// write stream. The device keeps exactly the bytes before it, the cut
// write included up to that byte; the process sees every later write,
// sync, open, rename and remove fail. So a commit is acknowledged only
// if an fsync covered it before the crash, and every run checks that
// recovery finds each acknowledged commit and each value a snapshot
// scan read (bit rot excepted, since it may cut durable records).
//
// Every failing run prints a one-line reproduction:
//
//	txdst -scenario crash-bitrot-checkpoint -seed 17
package dst

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nestedtx"
	"nestedtx/internal/adt"
	"nestedtx/internal/dst/clock"
	"nestedtx/internal/wal"
)

// Sim is one simulation run: a scenario plus the seed that decides
// everything else.
type Sim struct {
	Scenario Scenario
	Seed     int64
}

// Result is the outcome of a run. Log is the deterministic event log
// (identical across runs with the same scenario and seed); the
// execution counters are outcomes of the scheduling race and are
// reported here, outside the log.
type Result struct {
	Scenario string
	Seed     int64
	Stats    execStats
	Post     execStats // post-recovery / post-promotion phase
	Err      error
	Log      []byte
	Repro    string // one-line reproduction command, also the last line of Err
}

// Pass reports whether the run verified cleanly.
func (r *Result) Pass() bool { return r.Err == nil }

// simEnv is the per-run context threaded through the planes.
type simEnv struct {
	scn *Scenario
	clk *clock.Virtual
	rng *rand.Rand // master; used only to derive plane seeds
	log bytes.Buffer

	// acked closes at the run's first acknowledged commit (countOutcome).
	acked   chan struct{}
	ackOnce sync.Once
}

func (e *simEnv) logf(format string, args ...any) {
	fmt.Fprintf(&e.log, format+"\n", args...)
}

// New returns a Sim for the named scenario.
func New(scn Scenario, seed int64) *Sim { return &Sim{Scenario: scn, Seed: seed} }

// Run executes the simulation: plan, fault-schedule, execute, verify.
func (s *Sim) Run() *Result {
	res := &Result{
		Scenario: s.Scenario.Name,
		Seed:     s.Seed,
		Repro:    fmt.Sprintf("txdst -scenario %s -seed %d", s.Scenario.Name, s.Seed),
	}
	if f := s.Scenario.scale; f != 0 && f != 1 {
		res.Repro += fmt.Sprintf(" -scale %g", f)
	}
	scn := s.Scenario
	if err := scn.validate(); err != nil {
		res.Err = fmt.Errorf("%w\nreproduce: %s", err, res.Repro)
		return res
	}

	env := &simEnv{
		scn: &scn,
		clk: clock.NewVirtual(time.Time{}),
		rng: rand.New(rand.NewSource(s.Seed)),

		acked: make(chan struct{}),
	}
	defer env.clk.Stop()
	env.clk.AutoAdvance()

	// Derive one RNG per decision plane from the master seed, so adding
	// draws to one plane never perturbs another.
	planRNG := rand.New(rand.NewSource(env.rng.Int63()))
	faultRNG := rand.New(rand.NewSource(env.rng.Int63()))

	plan := buildPlan(&scn, planRNG)
	faults := planFaults(&scn, faultRNG)

	// The event log records the decision planes up front, the verdict at
	// the end, and nothing execution-order-dependent in between.
	env.logf("dst scenario=%s seed=%d", scn.Name, s.Seed)
	env.logf("universe objects=%d accounts=%d balance=%d", scn.Objects, scn.Accounts, scn.Balance)
	env.logf("plan txs=%d post=%d workers=%d digest=%016x", len(plan.Specs), len(plan.Post), scn.Workers, plan.Digest)
	env.logf("plan kinds zipf=%d nest=%d tree=%d scan=%d bank=%d",
		plan.Kinds[KZipf], plan.Kinds[KNest], plan.Kinds[KTree], plan.Kinds[KScan], plan.Kinds[KBank])
	if scn.Durable {
		env.logf("wal segbytes=%d", faults.SegmentBytes)
	}
	if scn.Net {
		env.logf("net latency=%s jitter=%s seed=%d", scn.NetLatency, scn.NetJitter, faults.NetSeed)
	}
	for _, ev := range faults.Events {
		env.logf("fault t=%s %s", ev.At, ev.Kind)
	}
	if scn.CrashInCheckpoint {
		env.logf("fault crash after=%dB from=checkpoint", faults.CrashAfter)
	} else if scn.Crash {
		env.logf("fault crash after=%dB", faults.CrashAfter)
	}
	if scn.BitRot {
		env.logf("fault bitrot seg-draw=%d off-draw=%d", faults.RotSeg, faults.RotOff)
	}

	var err error
	switch {
	case scn.Net:
		err = runNet(env, plan, faults, res)
	case scn.Durable:
		err = runDurable(env, plan, faults, res)
	default:
		err = runMem(env, plan, res)
	}
	if err != nil {
		env.logf("verdict fail")
		res.Err = fmt.Errorf("%w\nreproduce: %s", err, res.Repro)
	} else {
		env.logf("verdict pass")
	}
	res.Log = append([]byte(nil), env.log.Bytes()...)
	return res
}

// registerUniverse defines the scenario's objects on a manager.
func registerUniverse(m *nestedtx.Manager, scn *Scenario) error {
	for i := 0; i < scn.Objects; i++ {
		if err := m.Register(objName(i), adt.Counter{}); err != nil {
			return err
		}
	}
	for i := 0; i < scn.Accounts; i++ {
		if err := m.Register(acctName(i), adt.Account{Balance: scn.Balance}); err != nil {
			return err
		}
	}
	if scn.Crash {
		if err := m.Register("txctr", adt.Counter{}); err != nil {
			return err
		}
	}
	return nil
}

// auditConservation sums every account outside the formal history (so
// the audit itself does not bloat the checker's schedule) and compares
// against the invariant total.
func auditConservation(m *nestedtx.Manager, scn *Scenario) error {
	if scn.Accounts < 2 {
		return nil
	}
	var sum int64
	for i := 0; i < scn.Accounts; i++ {
		st, err := m.State(acctName(i))
		if err != nil {
			return fmt.Errorf("dst: audit: %w", err)
		}
		sum += st.(adt.Account).Balance
	}
	if want := int64(scn.Accounts) * scn.Balance; sum != want {
		return fmt.Errorf("dst: conservation broken: accounts sum to %d, want %d", sum, want)
	}
	return nil
}

// runMem is the embedded environment: a recording manager, the full
// workload, then the complete machine check.
func runMem(env *simEnv, plan *Plan, res *Result) error {
	m := nestedtx.NewManager(nestedtx.WithRecording(), nestedtx.WithClock(env.clk))
	if err := registerUniverse(m, env.scn); err != nil {
		return err
	}
	st, err := runSpecs(env, m, plan.Specs)
	res.Stats = st
	if err != nil {
		return err
	}
	if err := auditConservation(m, env.scn); err != nil {
		return err
	}
	if err := m.CheckInvariants(); err != nil {
		return fmt.Errorf("dst: lock-table invariants: %w", err)
	}
	if err := m.Verify(); err != nil {
		return fmt.Errorf("dst: history rejected: %w", err)
	}
	return nil
}

// runDurable is the crash environment: a durable manager over a
// FaultFS that dies at a planned byte of the write stream (the device
// keeps the prefix, the process sees every later operation fail),
// optional bit rot on the survivors, recovery, Recovery.Verify, prefix
// checks, and a recorded post-recovery phase with snapshot scans.
func runDurable(env *simEnv, plan *Plan, faults *faultPlan, res *Result) error {
	scn := env.scn
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	ffs.SetClock(env.clk)
	const dir = "sim"

	m, _, err := nestedtx.OpenDurable(dir, nestedtx.DurableOptions{
		FS:           ffs,
		SegmentBytes: faults.SegmentBytes,
		Clock:        env.clk,
	}, nestedtx.WithClock(env.clk))
	if err != nil {
		return fmt.Errorf("dst: open durable: %w", err)
	}
	if err := registerUniverse(m, scn); err != nil {
		return fmt.Errorf("dst: register: %w", err)
	}
	// Arm the crash only after registration is on the device (Register
	// stages, SyncWAL flushes) and folded into a checkpoint, so the
	// budget counts from the first workload byte and the recovered
	// universe is always complete: bit rot targets segments only, so it
	// can cut workload history but never a registration. The crash still
	// lands before, inside and after the workload's checkpoint writes.
	if err := m.SyncWAL(); err != nil {
		return fmt.Errorf("dst: sync registrations: %w", err)
	}
	if err := m.Checkpoint(); err != nil {
		return fmt.Errorf("dst: checkpoint registrations: %w", err)
	}
	if scn.Crash && !scn.CrashInCheckpoint {
		ffs.CrashAfter(faults.CrashAfter)
	}

	checkpoints := 0
	drained := make(chan struct{})
	wait := driveFaults(env, faults, faultActions{
		Checkpoint: func() {
			if checkpoints++; scn.CrashInCheckpoint && checkpoints == scn.Checkpoints {
				// The checkpoint fires on the virtual clock, which a loaded
				// machine can run ahead of the workload: armed before the
				// first commit, the crash lands in the checkpoint's write
				// and the run acknowledges nothing. So it waits for one (or
				// for the workload to end without one).
				select {
				case <-env.acked:
				case <-drained:
				}
				ffs.CrashAfter(faults.CrashAfter)
			}
			_ = m.Checkpoint()
		},
	})
	st, err := runSpecs(env, m, plan.Specs)
	res.Stats = st
	close(drained)
	wait()
	if err != nil {
		return err
	}
	_ = m.CloseWAL() // expected to fail once the fault latched

	if scn.BitRot {
		applyBitRot(mem, dir, faults)
	}

	// Recover from the surviving bytes — the fault injector died with
	// the process — and machine-check the recovered history (Theorem 34
	// across the crash).
	m2, rec, err := nestedtx.OpenDurable(dir, nestedtx.DurableOptions{FS: mem},
		nestedtx.WithRecording(), nestedtx.WithClock(env.clk))
	if err != nil {
		return fmt.Errorf("dst: recovery: %w", err)
	}
	defer m2.CloseWAL()
	if err := rec.Verify(); err != nil {
		return fmt.Errorf("dst: recovered history rejected: %w", err)
	}
	if err := checkCommitPrefix(rec, st, scn); err != nil {
		return err
	}

	// Post-crash phase: the recovered manager keeps serving — snapshot
	// scans across the crash boundary plus fresh commits, then the full
	// machine check of the new epoch.
	post, err := runSpecs(env, m2, plan.Post)
	res.Post = post
	if err != nil {
		return err
	}
	if err := m2.CheckInvariants(); err != nil {
		return fmt.Errorf("dst: post-recovery invariants: %w", err)
	}
	if err := m2.Verify(); err != nil {
		return fmt.Errorf("dst: post-recovery history rejected: %w", err)
	}
	return nil
}

// checkCommitPrefix cross-checks the recovered commit counter against
// the log: the recovered value must equal the checkpoint base plus the
// surviving records that bumped it (redo consistency), and — unless
// bit rot may have truncated durable records — must cover every commit
// the workload saw acknowledged and every value a snapshot scan read.
func checkCommitPrefix(rec *nestedtx.Recovery, st execStats, scn *Scenario) error {
	state, ok := rec.States()["txctr"]
	if !ok {
		return errors.New("dst: recovery lost txctr registration")
	}
	got := state.(adt.Counter).N
	var base int64
	if ck, ok := rec.Checkpoint["txctr"]; ok {
		base = ck.(adt.Counter).N
	}
	var bumps int64
	for _, r := range rec.Records {
		if r.Commit == nil {
			continue
		}
		for _, e := range r.Commit.Effects {
			if e.Obj == "txctr" {
				bumps++
			}
		}
	}
	if got != base+bumps {
		return fmt.Errorf("dst: txctr %d != checkpoint %d + %d surviving bumps", got, base, bumps)
	}
	if !scn.BitRot && got < st.Writes {
		return fmt.Errorf("dst: durability hole: %d acknowledged commits, only %d recovered", st.Writes, got)
	}
	if !scn.BitRot && got < st.Seen {
		return fmt.Errorf("dst: snapshot ahead of the log: a scan read txctr = %d, only %d recovered", st.Seen, got)
	}
	return nil
}

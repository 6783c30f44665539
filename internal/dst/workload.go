package dst

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nestedtx"
	"nestedtx/internal/adt"
)

// SpecKind enumerates the workload generators.
type SpecKind int

const (
	KZipf SpecKind = iota // zipfian-hotspot read/write tree
	KNest                 // deep nesting, sequential + concurrent children
	KTree                 // long-lived mixed tree with virtual think time
	KScan                 // read-only snapshot scan
	KBank                 // transfer between two accounts
)

func (k SpecKind) String() string {
	switch k {
	case KZipf:
		return "zipf"
	case KNest:
		return "nest"
	case KTree:
		return "tree"
	case KScan:
		return "scan"
	case KBank:
		return "bank"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// TxSpec is one planned top-level transaction. Everything the executor
// randomises inside the transaction is drawn from a rand.Rand seeded
// with Seed, so the spec fully determines the transaction's intent (the
// interleaving against other specs is the system under test, and is
// adjudicated by the checker, not by replay equality).
type TxSpec struct {
	Kind   SpecKind
	Seed   int64
	Depth  int
	Fanout int
	Ops    int
	From   int   // bank: source account
	To     int   // bank: destination account
	Amount int64 // bank: transfer amount
}

// Generator plans transactions of one kind. Implementations must be
// pure functions of (rng, scenario): same draws, same specs.
type Generator interface {
	Gen(rng *rand.Rand, scn *Scenario) TxSpec
}

// Generators is the registry the planner draws from, indexed by kind.
var Generators = map[SpecKind]Generator{
	KZipf: zipfGen{},
	KNest: nestGen{},
	KTree: treeGen{},
	KScan: scanGen{},
	KBank: bankGen{},
}

type zipfGen struct{}

func (zipfGen) Gen(rng *rand.Rand, scn *Scenario) TxSpec {
	return TxSpec{
		Kind:   KZipf,
		Seed:   rng.Int63(),
		Depth:  1 + rng.Intn(max(1, scn.MaxDepth)),
		Fanout: max(1, scn.Fanout),
		Ops:    max(1, scn.Ops),
	}
}

type nestGen struct{}

func (nestGen) Gen(rng *rand.Rand, scn *Scenario) TxSpec {
	// Deep by construction: at least 3/4 of MaxDepth, up to MaxDepth.
	lo := max(1, scn.MaxDepth*3/4)
	return TxSpec{
		Kind:   KNest,
		Seed:   rng.Int63(),
		Depth:  lo + rng.Intn(scn.MaxDepth-lo+1),
		Fanout: max(1, scn.Fanout),
		Ops:    max(1, scn.Ops),
	}
}

type treeGen struct{}

func (treeGen) Gen(rng *rand.Rand, scn *Scenario) TxSpec {
	return TxSpec{
		Kind:   KTree,
		Seed:   rng.Int63(),
		Depth:  2 + rng.Intn(max(1, scn.MaxDepth-1)),
		Fanout: max(1, scn.Fanout),
		Ops:    max(1, scn.Ops),
	}
}

type scanGen struct{}

func (scanGen) Gen(rng *rand.Rand, scn *Scenario) TxSpec {
	return TxSpec{Kind: KScan, Seed: rng.Int63(), Ops: max(1, scn.Ops)}
}

type bankGen struct{}

func (bankGen) Gen(rng *rand.Rand, scn *Scenario) TxSpec {
	pick := accountPicker(rng, scn)
	from := pick()
	to := pick()
	for to == from {
		to = pick()
	}
	return TxSpec{
		Kind:   KBank,
		Seed:   rng.Int63(),
		From:   from,
		To:     to,
		Amount: 1 + rng.Int63n(10),
	}
}

// accountPicker draws account indices — zipfian when the scenario is
// skewed, uniform otherwise.
func accountPicker(rng *rand.Rand, scn *Scenario) func() int {
	if scn.ZipfS > 1 {
		z := rand.NewZipf(rng, scn.ZipfS, 1, uint64(scn.Accounts-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(scn.Accounts) }
}

// Plan is the deterministic workload plan: the main-phase specs, the
// post-phase specs (run after recovery or promotion), and the FNV-1a
// digest over both that the event log records.
type Plan struct {
	Specs  []TxSpec
	Post   []TxSpec
	Digest uint64
	Kinds  map[SpecKind]int
}

// buildPlan draws the whole workload from rng. The plan — not the
// execution — is the deterministic artifact: two runs with the same
// seed build byte-identical plans.
func buildPlan(scn *Scenario, rng *rand.Rand) *Plan {
	p := &Plan{Kinds: make(map[SpecKind]int)}
	draw := func() TxSpec {
		r := rng.Intn(100)
		var k SpecKind
		switch m := scn.Mix; {
		case r < m.Zipf:
			k = KZipf
		case r < m.Zipf+m.Nest:
			k = KNest
		case r < m.Zipf+m.Nest+m.Tree:
			k = KTree
		case r < m.Zipf+m.Nest+m.Tree+m.Scan:
			k = KScan
		default:
			k = KBank
		}
		return Generators[k].Gen(rng, scn)
	}
	for i := 0; i < scn.Txs; i++ {
		s := draw()
		p.Kinds[s.Kind]++
		p.Specs = append(p.Specs, s)
	}
	for i := 0; i < scn.PostTxs; i++ {
		p.Post = append(p.Post, draw())
	}
	p.Digest = digest(p.Specs, p.Post)
	return p
}

func digest(lists ...[]TxSpec) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, specs := range lists {
		for _, s := range specs {
			put(int64(s.Kind))
			put(s.Seed)
			put(int64(s.Depth))
			put(int64(s.Fanout))
			put(int64(s.Ops))
			put(int64(s.From))
			put(int64(s.To))
			put(s.Amount)
		}
	}
	return h.Sum64()
}

// execStats counts what the executor observed. These are outcomes of
// the race being tested, so they appear in the Result but never in the
// deterministic event log.
type execStats struct {
	Committed int64 // top-level locking transactions committed
	Aborted   int64 // top-level transactions that gave up after retries
	Scans     int64 // read-only snapshot transactions completed
	Writes    int64 // committed specs that performed writes (acked)
	Seen      int64 // largest txctr a snapshot scan read (Crash scenarios)
}

// runSpecs drives the plan through an embedded manager. A non-nil
// invariant error (bank conservation broken inside a snapshot) aborts
// the run.
func runSpecs(env *simEnv, m *nestedtx.Manager, specs []TxSpec) (execStats, error) {
	var st execStats
	err := runPool(env, specs, func(spec TxSpec) error { return runSpec(env, m, spec, &st) },
		func(spec TxSpec) time.Duration {
			return time.Duration(rand.New(rand.NewSource(spec.Seed ^ 0x5eed)).Int63n(int64(env.scn.ThinkMax)))
		})
	return st, err
}

// runPool hands specs to env.scn.Workers goroutines. Spec-to-worker
// assignment is racy on purpose — the interleaving is the input the
// checker adjudicates. After each spec a worker sleeps think(spec) of
// simulated time when ThinkMax is set. It returns the first error a spec
// returned.
func runPool(env *simEnv, specs []TxSpec, run func(TxSpec) error, think func(TxSpec) time.Duration) error {
	var firstErr atomic.Value
	jobs := make(chan TxSpec)
	var wg sync.WaitGroup
	for w := 0; w < env.scn.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range jobs {
				if err := run(spec); err != nil {
					firstErr.CompareAndSwap(nil, err) //nolint:errcheck
				}
				if env.scn.ThinkMax > 0 {
					env.clk.Sleep(think(spec))
				}
			}
		}()
	}
	for _, s := range specs {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	err, _ := firstErr.Load().(error)
	return err
}

// runSpec executes one planned transaction. Commit/abort losses from
// contention or an armed crash are expected outcomes and counted, not
// errors; only invariant violations surface as errors.
func runSpec(env *simEnv, m *nestedtx.Manager, spec TxSpec, st *execStats) error {
	rng := rand.New(rand.NewSource(spec.Seed))
	scn := env.scn
	switch spec.Kind {
	case KScan:
		if err := runScan(env, m, spec, rng, st); err != nil {
			return err
		}
		atomic.AddInt64(&st.Scans, 1)
		return nil
	case KBank:
		err := m.RunRetry(scn.Retries, func(tx *nestedtx.Tx) error {
			return execBank(tx, spec)
		})
		env.countOutcome(st, err, false)
		return nil
	default:
		err := m.RunRetry(scn.Retries, func(tx *nestedtx.Tx) error {
			if scn.Crash {
				// Durable accounting: every write transaction bumps the
				// global commit counter so recovery can cross-check the
				// surviving prefix.
				if _, err := tx.Write("txctr", adt.CtrAdd{Delta: 1}); err != nil {
					return err
				}
			}
			return execTree(env, tx, spec, rng, 1)
		})
		// Writes counts transactions that bumped txctr — the acked set
		// the crash-recovery prefix check compares against.
		env.countOutcome(st, err, scn.Crash)
		return nil
	}
}

func (e *simEnv) countOutcome(st *execStats, err error, writes bool) {
	if err != nil {
		atomic.AddInt64(&st.Aborted, 1)
		return
	}
	atomic.AddInt64(&st.Committed, 1)
	e.ackOnce.Do(func() { close(e.acked) })
	if writes {
		atomic.AddInt64(&st.Writes, 1)
	}
}

// execTree runs one level of a read/write tree: Ops accesses at this
// level, then Fanout children (sequential or concurrent, with voluntary
// aborts) down to spec.Depth.
func execTree(env *simEnv, tx *nestedtx.Tx, spec TxSpec, rng *rand.Rand, level int) error {
	scn := env.scn
	pick := objectPicker(rng, scn, spec)
	for i := 0; i < spec.Ops; i++ {
		obj := pick()
		var err error
		if rng.Intn(100) < scn.ReadPct {
			_, err = tx.Read(obj, adt.CtrGet{})
		} else {
			_, err = tx.Write(obj, adt.CtrAdd{Delta: 1})
		}
		if err != nil {
			return err
		}
	}
	if level >= spec.Depth {
		return nil
	}
	if spec.Kind == KTree && scn.ThinkMax > 0 {
		// Long-lived tree: hold locks across a virtual pause.
		env.clk.Sleep(time.Duration(rng.Int63n(int64(scn.ThinkMax))))
	}
	concurrent := spec.Kind == KNest && rng.Intn(2) == 0
	if concurrent {
		handles := make([]*nestedtx.Handle, 0, spec.Fanout)
		for c := 0; c < spec.Fanout; c++ {
			crng := rand.New(rand.NewSource(rng.Int63()))
			handles = append(handles, tx.Go(func(s *nestedtx.Tx) error {
				return execChild(env, s, spec, crng, level+1)
			}))
		}
		for _, h := range handles {
			if err := h.Wait(); err != nil && !wantAbort(err) {
				return err
			}
		}
		return nil
	}
	for c := 0; c < spec.Fanout; c++ {
		crng := rand.New(rand.NewSource(rng.Int63()))
		if err := tx.Sub(func(s *nestedtx.Tx) error {
			return execChild(env, s, spec, crng, level+1)
		}); err != nil && !wantAbort(err) {
			return err
		}
	}
	return nil
}

// errVoluntaryAbort marks a planned subtransaction abort — the paper's
// "aborted descendant leaves no trace" case, absorbed by the parent.
var errVoluntaryAbort = fmt.Errorf("dst: voluntary subtransaction abort")

func wantAbort(err error) bool {
	return errors.Is(err, errVoluntaryAbort) || errors.Is(err, nestedtx.ErrDeadlock)
}

func execChild(env *simEnv, tx *nestedtx.Tx, spec TxSpec, rng *rand.Rand, level int) error {
	if env.scn.AbortPct > 0 && rng.Intn(100) < env.scn.AbortPct {
		// Do some work first so the abort has something to undo.
		if _, err := tx.Write(objectPicker(rng, env.scn, spec)(), adt.CtrAdd{Delta: 1}); err != nil {
			return err
		}
		return errVoluntaryAbort
	}
	return execTree(env, tx, spec, rng, level)
}

// objectPicker draws counter names — zipfian for hotspot specs on a
// skewed scenario, uniform otherwise.
func objectPicker(rng *rand.Rand, scn *Scenario, spec TxSpec) func() string {
	if spec.Kind == KZipf && scn.ZipfS > 1 && scn.Objects > 1 {
		z := rand.NewZipf(rng, scn.ZipfS, 1, uint64(scn.Objects-1))
		return func() string { return objName(int(z.Uint64())) }
	}
	return func() string { return objName(rng.Intn(max(1, scn.Objects))) }
}

func objName(i int) string  { return fmt.Sprintf("obj%d", i) }
func acctName(i int) string { return fmt.Sprintf("acct%d", i) }

// execBank transfers spec.Amount from one account to another,
// depositing only when the withdrawal succeeded — conservation of the
// total balance is the scenario invariant.
func execBank(tx *nestedtx.Tx, spec TxSpec) error {
	v, err := tx.Write(acctName(spec.From), adt.AcctWithdraw{Amount: spec.Amount})
	if err != nil {
		return err
	}
	if !v.(adt.AcctResult).OK {
		return nil // refused: insufficient funds, balance untouched
	}
	_, err = tx.Write(acctName(spec.To), adt.AcctDeposit{Amount: spec.Amount})
	return err
}

// runScan is the read-only snapshot transaction. On a small bank it
// audits conservation across every account inside one snapshot — the
// strongest use of snapshot isolation the system offers. On large
// banks and counter universes it samples reads.
func runScan(env *simEnv, m *nestedtx.Manager, spec TxSpec, rng *rand.Rand, st *execStats) error {
	scn := env.scn
	return m.RunReadOnly(func(s *nestedtx.Snapshot) error {
		if scn.Crash {
			// What a reader saw of the commit counter: recovery must cover
			// it (checkCommitPrefix) — no snapshot runs ahead of the log.
			v, err := s.Read("txctr", adt.CtrGet{})
			if err != nil {
				return err
			}
			for n := v.(int64); ; {
				seen := atomic.LoadInt64(&st.Seen)
				if n <= seen || atomic.CompareAndSwapInt64(&st.Seen, seen, n) {
					break
				}
			}
		}
		if scn.Accounts >= 2 && scn.Accounts <= 1024 {
			var sum int64
			for i := 0; i < scn.Accounts; i++ {
				v, err := s.Read(acctName(i), adt.AcctBalance{})
				if err != nil {
					return err
				}
				sum += v.(int64)
			}
			if want := int64(scn.Accounts) * scn.Balance; sum != want {
				return fmt.Errorf("dst: conservation broken inside snapshot %s: sum %d, want %d", s.ID(), sum, want)
			}
			return nil
		}
		n := spec.Ops * 8
		for i := 0; i < n; i++ {
			var err error
			if scn.Accounts > 0 {
				_, err = s.Read(acctName(rng.Intn(scn.Accounts)), adt.AcctBalance{})
			} else {
				_, err = s.Read(objName(rng.Intn(max(1, scn.Objects))), adt.CtrGet{})
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// newSpecRNG derives the transaction-local random stream from a spec's
// planned seed.
func newSpecRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

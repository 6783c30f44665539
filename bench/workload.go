package main

import (
	"errors"
	"fmt"
	"math/rand"

	"nestedtx"
	"nestedtx/internal/dst"
)

// workload is one named traffic mix. The names are permanent: issues
// and BENCHMARK.json cite them.
type workload struct {
	name      string
	networked bool // clients talk to an in-process server over loopback TCP
	durable   bool // OpenDurable on the real file system
	objects   int
	initial   nestedtx.State
	objName   func(int) string
	attempts  int          // RunRetry budget
	scn       dst.Scenario // knobs the dst generators read
	plan      func(p *planner, j *job)
	body      func(j *job, t txn) error
	// quiet marks the workloads predicted to see (almost) no lock
	// waits; the prediction is asserted on every full-size run.
	quiet bool
}

func ctrName(i int) string  { return fmt.Sprintf("obj%d", i) }
func acctName(i int) string { return fmt.Sprintf("acct%d", i) }

const (
	bankBalance = 1_000_000
	scanReads   = 16 // objects one snapshot scan reads
)

// workloads is the fixed set, in BENCHMARK.json order. Each stresses
// different layers; README.md says why each exists.
var workloads = []*workload{
	{
		// A binary Sub tree three levels below the top: 15 nodes × 2
		// accesses, half reads, uniform over a universe far larger than
		// the footprint; 5 % of leaf subtransactions abort voluntarily.
		name: "embed_nested", objects: 65536, initial: nestedtx.Counter{}, objName: ctrName,
		attempts: 8, quiet: true,
		scn:  dst.Scenario{MaxDepth: 4, Fanout: 2, Ops: 2, ReadPct: 50, AbortPct: 5},
		plan: planNest, body: treeBody,
	},
	{
		// 64 zipfian counters: 7 of 8 transactions are two sequential
		// Subs of 4 accesses (80 % reads), every 8th is a snapshot scan
		// of 16 objects.
		name: "embed_hot_rw", objects: 64, initial: nestedtx.Counter{}, objName: ctrName,
		attempts: 16,
		scn:      dst.Scenario{MaxDepth: 2, Fanout: 2, Ops: 4, ReadPct: 80, ZipfS: 1.1},
		plan:     planHot, body: subsBody,
	},
	{
		// One read and one write on uniform objects: four round trips.
		name: "net_small", networked: true, objects: 65536, initial: nestedtx.Counter{}, objName: ctrName,
		attempts: 8, quiet: true,
		scn:  dst.Scenario{MaxDepth: 1, Fanout: 1, Ops: 2},
		plan: planSmall, body: flatBody,
	},
	{
		// Sub{withdraw a} + Sub{deposit b} + commit: eight round trips
		// and one fsync-waited WAL record.
		name: "net_durable_bank", networked: true, durable: true,
		objects: 4096, initial: nestedtx.Account{Balance: bankBalance}, objName: acctName,
		attempts: 8,
		scn:      dst.Scenario{Balance: bankBalance},
		plan:     planBank, body: bankBody,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Operations are boxed once: drawing an access must not allocate.
var (
	opGet      nestedtx.Op     = nestedtx.CtrGet{}
	opAdd      [4]nestedtx.Op  // CtrAdd{1..4}
	opWithdraw [11]nestedtx.Op // AcctWithdraw{1..10}, index = amount
	opDeposit  [11]nestedtx.Op
)

func init() {
	for i := range opAdd {
		opAdd[i] = nestedtx.CtrAdd{Delta: int64(i + 1)}
	}
	for i := 1; i < len(opWithdraw); i++ {
		opWithdraw[i] = nestedtx.AcctWithdraw{Amount: int64(i)}
		opDeposit[i] = nestedtx.AcctDeposit{Amount: int64(i)}
	}
}

type access struct {
	obj int32
	op  nestedtx.Op
}

// write is one surviving mutation of an attempt: what the output checks
// add to the expected state of obj once the transaction commits.
type write struct {
	obj   int32
	delta int64
}

// job is one planned top-level transaction. Every random choice is
// drawn by the planner before execution, so a retried attempt repeats
// exactly the same accesses. A worker reuses one job for all its
// transactions.
type job struct {
	names  []string
	scan   bool       // a read-only snapshot transaction, not a locking one
	spec   dst.TxSpec // the shape, in the simulator's vocabulary
	acc    []access   // accesses in execution order
	aborts []bool     // per leaf subtransaction: abort voluntarily?

	// Execution state of the current attempt.
	cur, leaf int
	writes    []write
}

func (j *job) clear() {
	j.scan = false
	j.acc = j.acc[:0]
	j.aborts = j.aborts[:0]
}

// begin resets the per-attempt state at body entry.
func (j *job) begin() {
	j.cur, j.leaf = 0, 0
	j.writes = j.writes[:0]
}

// spans is the number of spans a traced execution of j records when
// the first attempt succeeds.
func (j *job) spans() int {
	// tx + begin + attempt + commit, one per access, and one per
	// possible subtransaction (bounded by the access count).
	return 4 + 2*len(j.acc)
}

// do performs the next planned access and notes what it changed.
func (j *job) do(t txn) error {
	a := j.acc[j.cur]
	j.cur++
	v, err := t.Do(j.names[a.obj], a.op)
	if err != nil {
		return err
	}
	switch op := a.op.(type) {
	case nestedtx.CtrAdd:
		j.writes = append(j.writes, write{a.obj, op.Delta})
	case nestedtx.AcctDeposit:
		j.writes = append(j.writes, write{a.obj, op.Amount})
	case nestedtx.AcctWithdraw:
		if !v.(nestedtx.AcctResult).OK {
			return errRefused
		}
		j.writes = append(j.writes, write{a.obj, -op.Amount})
	}
	return nil
}

var (
	// errVoluntary is a planned subtransaction abort: the parent absorbs
	// it and carries on (the paper's "aborted descendant leaves no
	// trace").
	errVoluntary = errors.New("bench: voluntary subtransaction abort")
	// errRefused is a withdrawal the account could not cover. Balances
	// are sized so that it never happens; if it does the transfer fails.
	errRefused = errors.New("bench: withdrawal refused")
)

// sub runs fn as a subtransaction of t, dropping the writes of a child
// that did not commit.
func (j *job) sub(t txn, fn func(txn) error) error {
	mark := len(j.writes)
	err := t.Sub(fn)
	if err != nil {
		j.writes = j.writes[:mark]
	}
	return err
}

// treeBody is dst.execTree's shape with sequential children: Ops
// accesses at this node, then Fanout subtransactions, down to Depth.
// Leaves flagged by the plan abort after doing their work.
func treeBody(j *job, t txn) error { return treeLevel(j, t, 1) }

func treeLevel(j *job, t txn, level int) error {
	for i := 0; i < j.spec.Ops; i++ {
		if err := j.do(t); err != nil {
			return err
		}
	}
	if level >= j.spec.Depth {
		return nil
	}
	for c := 0; c < j.spec.Fanout; c++ {
		err := j.sub(t, func(s txn) error {
			if err := treeLevel(j, s, level+1); err != nil {
				return err
			}
			if level+1 == j.spec.Depth {
				abort := j.aborts[j.leaf]
				j.leaf++
				if abort {
					return errVoluntary
				}
			}
			return nil
		})
		if err != nil && !errors.Is(err, errVoluntary) {
			return err
		}
	}
	return nil
}

// subsBody is Fanout sequential subtransactions of Ops accesses each;
// the top level touches nothing itself.
func subsBody(j *job, t txn) error {
	for c := 0; c < j.spec.Fanout; c++ {
		err := j.sub(t, func(s txn) error {
			for i := 0; i < j.spec.Ops; i++ {
				if err := j.do(s); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// flatBody performs every access directly in the top-level transaction.
func flatBody(j *job, t txn) error {
	for range j.acc {
		if err := j.do(t); err != nil {
			return err
		}
	}
	return nil
}

// bankBody is a transfer: each leg in its own subtransaction.
func bankBody(j *job, t txn) error {
	for range j.acc {
		if err := j.sub(t, j.do); err != nil {
			return err
		}
	}
	return nil
}

// scanBody reads the planned objects inside one snapshot.
func scanBody(j *job, r reader) error {
	for _, a := range j.acc {
		if _, err := r.Read(j.names[a.obj], a.op); err != nil {
			return err
		}
	}
	return nil
}

// planner draws one worker's transactions from its own seeded stream.
type planner struct {
	w       *workload
	scn     dst.Scenario
	rng     *rand.Rand
	zipf    *rand.Zipf
	objects int
	n       int // transactions planned so far
}

// newPlanner returns the generator of one client. objects is the
// (possibly scaled-down) universe size.
func newPlanner(w *workload, objects int, seed int64) *planner {
	p := &planner{w: w, scn: w.scn, rng: rand.New(rand.NewSource(seed)), objects: objects}
	p.scn.Objects, p.scn.Accounts = objects, objects
	if w.scn.ZipfS > 1 {
		p.zipf = rand.NewZipf(p.rng, w.scn.ZipfS, 1, uint64(objects-1))
	}
	return p
}

func (p *planner) next(j *job) {
	j.clear()
	p.w.plan(p, j)
	p.n++
}

func (p *planner) uniform() int { return p.rng.Intn(p.objects) }
func (p *planner) hot() int     { return int(p.zipf.Uint64()) }

// drawAccesses plans n counter accesses: a read with probability
// ReadPct, otherwise an add of 1..4.
func (p *planner) drawAccesses(j *job, n int, pick func() int) {
	for i := 0; i < n; i++ {
		op := opGet
		if p.rng.Intn(100) >= p.scn.ReadPct {
			op = opAdd[p.rng.Intn(len(opAdd))]
		}
		j.acc = append(j.acc, access{int32(pick()), op})
	}
}

func planNest(p *planner, j *job) {
	j.spec = dst.Generators[dst.KNest].Gen(p.rng, &p.scn)
	// nestGen draws a depth in [3/4·MaxDepth, MaxDepth]; pinned so that
	// every transaction is the same size and latencies are comparable.
	j.spec.Depth = p.scn.MaxDepth
	nodes, leaves := 0, 1
	for level := 1; level <= j.spec.Depth; level++ {
		nodes += leaves
		if level < j.spec.Depth {
			leaves *= j.spec.Fanout
		}
	}
	p.drawAccesses(j, nodes*j.spec.Ops, p.uniform)
	for i := 0; i < leaves; i++ {
		j.aborts = append(j.aborts, p.rng.Intn(100) < p.scn.AbortPct)
	}
}

func planHot(p *planner, j *job) {
	if p.n%8 == 7 {
		j.scan = true
		j.spec = dst.Generators[dst.KScan].Gen(p.rng, &p.scn)
		for i := 0; i < scanReads; i++ {
			j.acc = append(j.acc, access{int32(p.uniform()), opGet})
		}
		return
	}
	j.spec = dst.Generators[dst.KZipf].Gen(p.rng, &p.scn)
	j.spec.Depth = p.scn.MaxDepth // zipfGen draws 1..MaxDepth; pinned like planNest
	p.drawAccesses(j, j.spec.Fanout*j.spec.Ops, p.hot)
}

func planSmall(p *planner, j *job) {
	j.spec = dst.Generators[dst.KZipf].Gen(p.rng, &p.scn)
	j.acc = append(j.acc,
		access{int32(p.uniform()), opGet},
		access{int32(p.uniform()), opAdd[p.rng.Intn(len(opAdd))]})
}

func planBank(p *planner, j *job) {
	j.spec = dst.Generators[dst.KBank].Gen(p.rng, &p.scn)
	j.acc = append(j.acc,
		access{int32(j.spec.From), opWithdraw[j.spec.Amount]},
		access{int32(j.spec.To), opDeposit[j.spec.Amount]})
}

package dst

import (
	"fmt"
	"sort"
	"time"
)

// Mix is the percentage composition of a scenario's transaction plan.
// Fields must sum to 100; buildPlan draws each transaction's kind from
// this distribution with the plan RNG.
type Mix struct {
	Zipf int // zipfian-hotspot read/write trees
	Nest int // deep sequential/concurrent nesting (MaxDepth levels)
	Tree int // long-lived mixed read/write trees with virtual think time
	Scan int // read-only snapshot scans (RunReadOnly)
	Bank int // bank transfers between two accounts
}

func (m Mix) total() int { return m.Zipf + m.Nest + m.Tree + m.Scan + m.Bank }

// Scenario is one named cell of the simulation matrix: a workload
// shape, an environment (embedded, durable, or replicated-networked)
// and a fault plan. All randomness inside a run is derived from the
// Sim seed; the Scenario itself is pure configuration.
type Scenario struct {
	Name string
	Doc  string

	// Workload plane.
	Objects  int   // counter universe obj0..objN-1
	Accounts int   // bank accounts acct0..acctN-1
	Balance  int64 // initial balance per account
	Txs      int   // top-level transactions in the plan
	Workers  int   // executor goroutines
	Retries  int   // RunRetry attempts per transaction
	Mix      Mix
	MaxDepth int           // nesting depth for Nest specs (paper trees)
	Fanout   int           // children per interior transaction
	Ops      int           // accesses per transaction level
	ReadPct  int           // read fraction of tree accesses
	AbortPct int           // voluntary subtransaction abort rate
	ZipfS    float64       // zipf skew (>1); 0 means uniform object picks
	ThinkMax time.Duration // max virtual think time between a worker's txs

	// Environment.
	Durable      bool  // write-ahead logged manager over a MemFS
	SegmentBytes int64 // WAL segment size; 0 = draw a small one
	Net          bool  // leader + replica + faultnet proxy + client pool

	// Fault plane.
	Crash bool // kill the device at a planned byte: it keeps the prefix, later operations fail
	// CrashInCheckpoint arms the crash as the last checkpoint event
	// starts, with a budget drawn across the checkpoint file's size, so it
	// lands inside the checkpoint's temporary write, rename or segment
	// removal (or in a commit's flush beside it).
	CrashInCheckpoint bool
	BitRot            bool // flip one byte of a surviving segment before recovery
	Checkpoints       int  // checkpoint fault events at drawn virtual times
	Partitions        int  // partition/heal cycles on the replication link (Net)
	NetLatency        time.Duration
	NetJitter         time.Duration

	// Post-phase: transactions run after recovery (Crash) or after
	// promotion (Net) — includes snapshot scans across the crash.
	PostTxs int

	// scale is the product of the factors Scale applied; 0 means none.
	// A run's reproduction line carries it.
	scale float64
}

// Scale returns a copy of the scenario with its object universe and
// transaction count multiplied by f (at least 1 each) — used to run the
// shape of a large scenario at test size. The copy records f, times any
// factor it was scaled by before.
func (s Scenario) Scale(f float64) Scenario {
	mul := func(n int) int {
		if n <= 0 {
			return n
		}
		if m := int(float64(n) * f); m > 0 {
			return m
		}
		return 1
	}
	s.Objects = mul(s.Objects)
	s.Accounts = mul(s.Accounts)
	s.Txs = mul(s.Txs)
	s.PostTxs = mul(s.PostTxs)
	if s.scale == 0 {
		s.scale = 1
	}
	s.scale *= f
	return s
}

// validate rejects configurations the planner cannot honour.
func (s Scenario) validate() error {
	if s.Txs <= 0 || s.Workers <= 0 {
		return fmt.Errorf("dst: scenario %s: Txs and Workers must be positive", s.Name)
	}
	if s.Mix.total() != 100 {
		return fmt.Errorf("dst: scenario %s: mix sums to %d, want 100", s.Name, s.Mix.total())
	}
	if s.Mix.Bank > 0 && s.Accounts < 2 {
		return fmt.Errorf("dst: scenario %s: bank mix needs >= 2 accounts", s.Name)
	}
	if (s.Mix.Zipf+s.Mix.Nest+s.Mix.Tree > 0) && s.Objects <= 0 {
		return fmt.Errorf("dst: scenario %s: tree mixes need objects", s.Name)
	}
	if s.Net && !s.Durable {
		return fmt.Errorf("dst: scenario %s: Net implies Durable", s.Name)
	}
	if s.Crash && !s.Durable {
		return fmt.Errorf("dst: scenario %s: Crash needs Durable", s.Name)
	}
	if s.CrashInCheckpoint && (!s.Crash || s.Checkpoints == 0) {
		return fmt.Errorf("dst: scenario %s: CrashInCheckpoint needs Crash and a checkpoint", s.Name)
	}
	return nil
}

// Scenarios returns the scenario matrix in a stable order.
func Scenarios() []Scenario {
	m := make([]Scenario, len(matrix))
	copy(m, matrix)
	return m
}

// Names returns the sorted scenario names.
func Names() []string {
	names := make([]string, 0, len(matrix))
	for _, s := range matrix {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range matrix {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

var matrix = []Scenario{
	{
		Name:    "hotspot",
		Doc:     "zipfian contention on a small counter universe, 25% snapshot scans",
		Objects: 64, Txs: 200, Workers: 8, Retries: 6,
		Mix:      Mix{Zipf: 75, Scan: 25},
		MaxDepth: 2, Fanout: 2, Ops: 4, ReadPct: 50, AbortPct: 5,
		ZipfS: 1.2, ThinkMax: 200 * time.Microsecond,
	},
	{
		Name:    "deep-nesting",
		Doc:     "chains 12 levels deep, sequential and concurrent children, voluntary aborts",
		Objects: 128, Txs: 40, Workers: 6, Retries: 6,
		Mix:      Mix{Nest: 80, Scan: 20},
		MaxDepth: 12, Fanout: 1, Ops: 2, ReadPct: 60, AbortPct: 10,
	},
	{
		Name:    "mixed-trees",
		Doc:     "long-lived mixed read/write trees with virtual think time, plus hotspots and scans",
		Objects: 96, Txs: 80, Workers: 8, Retries: 6,
		Mix:      Mix{Zipf: 30, Nest: 20, Tree: 30, Scan: 20},
		MaxDepth: 4, Fanout: 2, Ops: 3, ReadPct: 50, AbortPct: 5,
		ZipfS: 1.1, ThinkMax: 500 * time.Microsecond,
	},
	{
		Name:     "bank",
		Doc:      "transfers between 256 accounts; full-scan conservation audits inside snapshots",
		Accounts: 256, Balance: 1000, Txs: 300, Workers: 8, Retries: 6,
		Mix: Mix{Bank: 80, Scan: 20},
	},
	{
		Name:     "bank-xl",
		Doc:      "conservation at scale: 1M+ accounts, zipfian transfer endpoints, sampled scans",
		Accounts: 1 << 20, Balance: 100, Txs: 250, Workers: 8, Retries: 6,
		Mix:   Mix{Bank: 90, Scan: 10},
		ZipfS: 1.1,
	},
	{
		Name:    "crash-recovery",
		Doc:     "kill-at-byte during the workload; recover, Recovery.Verify, snapshot scans across the crash",
		Objects: 32, Txs: 200, Workers: 4, Retries: 4,
		Mix:      Mix{Zipf: 60, Nest: 20, Scan: 20},
		MaxDepth: 4, Fanout: 2, Ops: 3, ReadPct: 50, AbortPct: 5,
		ZipfS:   1.2,
		Durable: true, Crash: true, Checkpoints: 1, PostTxs: 60,
	},
	{
		Name:    "crash-bitrot-checkpoint",
		Doc:     "crash + one flipped byte + checkpoints racing commits; recovery serves the surviving prefix",
		Objects: 32, Txs: 200, Workers: 4, Retries: 4,
		Mix:      Mix{Zipf: 60, Nest: 20, Scan: 20},
		MaxDepth: 4, Fanout: 2, Ops: 3, ReadPct: 50, AbortPct: 5,
		ZipfS:   1.2,
		Durable: true, Crash: true, BitRot: true, Checkpoints: 3, PostTxs: 60,
	},
	{
		Name:    "crash-in-checkpoint",
		Doc:     "kill-at-byte armed as a checkpoint of 512 counters starts, commits flowing; every acknowledged commit recovers",
		Objects: 512, Txs: 200, Workers: 4, Retries: 4,
		Mix:      Mix{Zipf: 60, Nest: 20, Scan: 20},
		MaxDepth: 4, Fanout: 2, Ops: 3, ReadPct: 50, AbortPct: 5,
		ZipfS:   1.2,
		Durable: true, Crash: true, CrashInCheckpoint: true, Checkpoints: 2, PostTxs: 60,
	},
	{
		Name:    "failover-chaos",
		Doc:     "leader + replica; partitions on the replication link, leader death, verified promotion",
		Objects: 16, Txs: 300, Workers: 6, Retries: 8,
		Mix:      Mix{Zipf: 80, Scan: 20},
		MaxDepth: 2, Fanout: 1, Ops: 2, ReadPct: 40,
		ZipfS: 1.3, ThinkMax: 300 * time.Microsecond,
		Durable: true, Net: true, Partitions: 3,
		NetLatency: 200 * time.Microsecond, NetJitter: 300 * time.Microsecond,
		PostTxs: 40,
	},
	{
		Name:    "failover-rot",
		Doc:     "partitioned replication plus a flipped byte in the replica's log; promotion serves the verified prefix",
		Objects: 16, Txs: 250, Workers: 6, Retries: 8,
		Mix:      Mix{Zipf: 80, Scan: 20},
		MaxDepth: 2, Fanout: 1, Ops: 2, ReadPct: 40,
		ZipfS: 1.3, ThinkMax: 300 * time.Microsecond,
		Durable: true, Net: true, BitRot: true, Partitions: 2,
		NetLatency: 200 * time.Microsecond, NetJitter: 300 * time.Microsecond,
		PostTxs: 40,
	},
}

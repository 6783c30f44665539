package dst

import (
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"nestedtx/internal/wal"
)

// faultKind enumerates the time-driven fault events.
type faultKind int

const (
	fCheckpoint faultKind = iota
	fPartition
	fHeal
)

func (k faultKind) String() string {
	switch k {
	case fCheckpoint:
		return "checkpoint"
	case fPartition:
		return "partition"
	case fHeal:
		return "heal"
	}
	return "fault(?)"
}

// faultEvent is one scheduled fault at a virtual-time offset from the
// start of the run.
type faultEvent struct {
	At   time.Duration
	Kind faultKind
}

// faultPlan is everything the fault plane will do, drawn up front from
// the fault RNG so the event log can record it before execution starts.
type faultPlan struct {
	Events []faultEvent

	// Crash: kill-at-byte budget for FaultFS, armed after registration
	// and a first checkpoint (or, with CrashInCheckpoint, as the last
	// planned checkpoint starts). The device keeps the byte prefix, and the
	// process sees every later write and sync fail, so it acknowledges
	// nothing past the crash byte. Byte budgets are inherently
	// deterministic — they trigger on the write stream, not on time.
	CrashAfter int64

	// WAL shape, drawn so crashes land at interesting segment offsets.
	SegmentBytes int64

	// BitRot draws: raw random values recorded in the log; application
	// maps them onto the surviving segment list by modulo after the run.
	RotSeg int64
	RotOff int64

	// NetSeed seeds the faultnet proxy's jitter stream (Net scenarios).
	NetSeed int64
}

// horizon is the virtual-time span fault events are scheduled across.
// Workloads that finish earlier still see the full schedule (the driver
// always runs it to completion, so the log never depends on execution
// speed); workloads that run longer simply see no further faults.
const horizon = 200 * time.Millisecond

// planFaults draws the complete fault schedule for a run.
func planFaults(scn *Scenario, rng *rand.Rand) *faultPlan {
	p := &faultPlan{}
	if scn.Durable {
		p.SegmentBytes = scn.SegmentBytes
		if p.SegmentBytes == 0 {
			p.SegmentBytes = int64(512 + rng.Intn(4096))
		}
	}
	for i := 0; i < scn.Checkpoints; i++ {
		p.Events = append(p.Events, faultEvent{
			At:   time.Duration(rng.Int63n(int64(horizon))),
			Kind: fCheckpoint,
		})
	}
	for i := 0; i < scn.Partitions; i++ {
		at := time.Duration(rng.Int63n(int64(horizon * 3 / 4)))
		dur := time.Duration(rng.Int63n(int64(horizon/8))) + time.Millisecond
		p.Events = append(p.Events,
			faultEvent{At: at, Kind: fPartition},
			faultEvent{At: at + dur, Kind: fHeal},
		)
	}
	sortEvents(p.Events)
	if scn.Crash {
		p.CrashAfter = rng.Int63n(16_000) + 500
		rng.Intn(5) // a removed crash mode's draw, kept so the bit-rot draws do not shift
		if scn.CrashInCheckpoint {
			// A counter's checkpoint entry is about 40 bytes; the extra
			// eighth lets some crashes pass the write and land later.
			p.CrashAfter = rng.Int63n(int64(scn.Objects) * 45)
		}
	}
	if scn.BitRot {
		p.RotSeg = rng.Int63()
		p.RotOff = rng.Int63()
	}
	if scn.Net {
		p.NetSeed = rng.Int63()
	}
	return p
}

func sortEvents(evs []faultEvent) {
	// Insertion sort: schedules are tiny and the sort must be stable so
	// equal offsets keep their draw order (log determinism).
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].At < evs[j-1].At; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// faultActions binds fault kinds to the run's environment: checkpoint
// on the durable manager, partition/heal on the replication proxy. Nil
// actions are skipped (a mem run has no checkpointer).
type faultActions struct {
	Checkpoint func()
	Partition  func()
	Heal       func()
}

// driveFaults replays the planned schedule on the virtual clock. It
// always walks the whole schedule — even if the workload finished long
// ago — so a run's observable fault sequence is a function of the plan
// alone. Returns a wait function; call it after the workload drains.
func driveFaults(env *simEnv, plan *faultPlan, act faultActions) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := env.clk.Now()
		for _, ev := range plan.Events {
			if d := ev.At - env.clk.Now().Sub(start); d > 0 {
				env.clk.Sleep(d)
			}
			switch ev.Kind {
			case fCheckpoint:
				if act.Checkpoint != nil {
					act.Checkpoint()
				}
			case fPartition:
				if act.Partition != nil {
					act.Partition()
				}
			case fHeal:
				if act.Heal != nil {
					act.Heal()
				}
			}
		}
	}()
	return wg.Wait
}

// applyBitRot flips one byte of a surviving .seg file in dir, mapping
// the plan's raw draws onto whatever segments the run left behind.
// Returns the chosen file and offset ("", -1 when nothing to rot).
func applyBitRot(mem *wal.MemFS, dir string, plan *faultPlan) (string, int64) {
	names, _ := mem.ReadDir(dir)
	var segs []string
	for _, n := range names {
		if filepath.Ext(n) == ".seg" {
			segs = append(segs, n)
		}
	}
	if len(segs) == 0 {
		return "", -1
	}
	name := filepath.Join(dir, segs[plan.RotSeg%int64(len(segs))])
	size, err := mem.Size(name)
	if err != nil || size == 0 {
		return "", -1
	}
	off := plan.RotOff % size
	if mem.Corrupt(name, off) != nil {
		return "", -1
	}
	return name, off
}

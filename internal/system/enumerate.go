package system

import (
	"fmt"

	"nestedtx/internal/core"
	"nestedtx/internal/event"
)

// EnumConfig parameterises exhaustive schedule enumeration.
type EnumConfig struct {
	// MaxEvents truncates exploration depth; schedules are visited when no
	// candidate remains or the depth is reached (0 means no cut).
	MaxEvents int
	// IncludeAborts branches over the scheduler's unilateral ABORT choices
	// as well; this enlarges the space dramatically.
	IncludeAborts bool
	// Limit stops after visiting this many schedules (0 = unlimited).
	Limit int
	// Mode selects the lock classification.
	Mode core.Mode
}

// Enumerate explores every reachable concurrent schedule of the system by
// depth-first search over the driver's nondeterministic choices, invoking
// visit for each complete (or depth-truncated) schedule. It returns the
// number of schedules visited and whether the exploration was exhaustive
// (false when Limit cut it short).
//
// Each path is re-executed from the initial state (the composition is
// deterministic given the choice sequence), so memory stays flat at the
// cost of O(depth) replay per visited schedule — exactly the classic
// stateless-model-checking trade. Candidate order is deterministic, making
// the enumeration reproducible.
//
// This is bounded model checking for Theorem 34: on systems small enough
// to exhaust, the theorem is verified on *every* schedule, not a sample.
func (sys *System) Enumerate(cfg EnumConfig, visit func(event.Schedule) bool) (int, bool, error) {
	visited := 0
	stopped := false
	var explore func(path []int) error
	explore = func(path []int) error {
		if stopped {
			return nil
		}
		d, _, err := sys.lockingDriver(DriverConfig{Mode: cfg.Mode})
		if err != nil {
			return err
		}
		depth := 0
		branch := -1
		sched, err := d.runWith(func(cands, aborts []event.Event) (event.Event, bool) {
			all := cands
			if cfg.IncludeAborts {
				all = append(append([]event.Event(nil), cands...), aborts...)
			} else if len(all) == 0 {
				// Without abort branching a deadlocked composition cannot
				// proceed; resolve deterministically with the first abort
				// so enumeration still terminates with a complete run.
				all = aborts
			}
			if len(all) == 0 {
				return event.Event{}, false
			}
			if depth < len(path) {
				i := path[depth]
				depth++
				if i >= len(all) {
					// Unreachable for well-formed paths: the composition is
					// deterministic, so the branching factor cannot shrink.
					panic(fmt.Sprintf("system: enumerate: path index %d out of %d", i, len(all)))
				}
				return all[i], true
			}
			branch = len(all)
			return event.Event{}, false
		})
		if err != nil {
			return err
		}
		if branch < 0 || (cfg.MaxEvents > 0 && len(path) >= cfg.MaxEvents) {
			visited++
			if !visit(sched) || (cfg.Limit > 0 && visited >= cfg.Limit) {
				stopped = true
			}
			return nil
		}
		for i := 0; i < branch && !stopped; i++ {
			// Clamp capacity so sibling recursions do not share backing
			// arrays.
			next := append(path[:len(path):len(path)], i)
			if err := explore(next); err != nil {
				return err
			}
		}
		return nil
	}
	err := explore(nil)
	return visited, !stopped, err
}

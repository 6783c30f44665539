package generic

import (
	"strings"
	"testing"

	"nestedtx/internal/event"
	"nestedtx/internal/tree"
)

func step(t *testing.T, s *Scheduler, evs ...event.Event) {
	t.Helper()
	for _, e := range evs {
		if err := s.Step(e); err != nil {
			t.Fatalf("step %s: %v", e, err)
		}
	}
}

func TestConcurrentSiblingsAllowed(t *testing.T) {
	s := NewScheduler()
	// Unlike the serial scheduler, siblings may be live simultaneously.
	step(t, s,
		event.Event{Kind: event.RequestCreate, T: "T0.0"},
		event.Event{Kind: event.RequestCreate, T: "T0.1"},
		event.Event{Kind: event.Create, T: "T0.0"},
		event.Event{Kind: event.Create, T: "T0.1"},
	)
	if !s.Created("T0.0") || !s.Created("T0.1") {
		t.Fatal("both siblings should be created")
	}
}

func TestAbortAfterWork(t *testing.T) {
	s := NewScheduler()
	step(t, s,
		event.Event{Kind: event.RequestCreate, T: "T0.0"},
		event.Event{Kind: event.Create, T: "T0.0"},
		event.Event{Kind: event.Abort, T: "T0.0"}, // created transactions may abort
		event.Event{Kind: event.ReportAbort, T: "T0.0"},
	)
	if !s.Aborted("T0.0") || !s.Returned("T0.0") {
		t.Fatal("abort state wrong")
	}
	// But not twice.
	if err := s.Step(event.Event{Kind: event.Abort, T: "T0.0"}); err == nil {
		t.Fatal("double abort must be rejected")
	}
}

func TestCommitRequiresChildrenReturned(t *testing.T) {
	s := NewScheduler()
	step(t, s,
		event.Event{Kind: event.RequestCreate, T: "T0.0"},
		event.Event{Kind: event.Create, T: "T0.0"},
		event.Event{Kind: event.RequestCreate, T: "T0.0.0"},
		event.Event{Kind: event.RequestCommit, T: "T0.0", Value: int64(1)},
	)
	err := s.Step(event.Event{Kind: event.Commit, T: "T0.0"})
	if err == nil || !strings.Contains(err.Error(), "not returned") {
		t.Fatalf("commit with outstanding child: %v", err)
	}
	step(t, s, event.Event{Kind: event.Abort, T: "T0.0.0"})
	step(t, s, event.Event{Kind: event.Commit, T: "T0.0"})
	if !s.Committed("T0.0") {
		t.Fatal("commit should now succeed")
	}
}

func TestInformPreconditions(t *testing.T) {
	s := NewScheduler()
	if err := s.Step(event.Event{Kind: event.InformCommitAt, T: "T0.0", Object: "X"}); err == nil {
		t.Fatal("inform-commit before commit must be rejected")
	}
	if err := s.Step(event.Event{Kind: event.InformAbortAt, T: "T0.0", Object: "X"}); err == nil {
		t.Fatal("inform-abort before abort must be rejected")
	}
	step(t, s,
		event.Event{Kind: event.RequestCreate, T: "T0.0"},
		event.Event{Kind: event.RequestCommit, T: "T0.0", Value: int64(0)},
		event.Event{Kind: event.Commit, T: "T0.0"},
		event.Event{Kind: event.InformCommitAt, T: "T0.0", Object: "X"},
		event.Event{Kind: event.InformCommitAt, T: "T0.0", Object: "Y"}, // repeatable
		event.Event{Kind: event.InformCommitAt, T: "T0.0", Object: "X"}, // repeatable
	)
}

func TestReportPreconditions(t *testing.T) {
	s := NewScheduler()
	step(t, s,
		event.Event{Kind: event.RequestCreate, T: "T0.0"},
		event.Event{Kind: event.RequestCommit, T: "T0.0", Value: int64(5)},
		event.Event{Kind: event.Commit, T: "T0.0"},
	)
	if err := s.Step(event.Event{Kind: event.ReportCommit, T: "T0.0", Value: int64(6)}); err == nil {
		t.Fatal("report with wrong value must be rejected")
	}
	step(t, s, event.Event{Kind: event.ReportCommit, T: "T0.0", Value: int64(5)})
	if err := s.Step(event.Event{Kind: event.ReportAbort, T: "T0.0"}); err == nil {
		t.Fatal("report-abort of committed transaction must be rejected")
	}
}

func TestRootGuards(t *testing.T) {
	s := NewScheduler()
	if err := s.Step(event.Event{Kind: event.Commit, T: tree.Root}); err == nil {
		t.Fatal("root commit must be rejected")
	}
	if err := s.Step(event.Event{Kind: event.Abort, T: tree.Root}); err == nil {
		t.Fatal("root abort must be rejected")
	}
	// The root is create-requested initially.
	step(t, s, event.Event{Kind: event.Create, T: tree.Root})
}

func TestQueries(t *testing.T) {
	s := NewScheduler()
	step(t, s,
		event.Event{Kind: event.RequestCreate, T: "T0.0"},
		event.Event{Kind: event.RequestCreate, T: "T0.1"},
		event.Event{Kind: event.Create, T: "T0.0"},
		event.Event{Kind: event.RequestCommit, T: "T0.0", Value: int64(1)},
	)
	pc := s.PendingCreates()
	// T0 and T0.1 are pending creates; T0.0 is created.
	if len(pc) != 2 {
		t.Fatalf("pending creates = %v", pc)
	}
	if n := len(s.CommittableTransactions()); n != 1 {
		t.Fatalf("committable = %d", n)
	}
	if n := len(s.AbortableTransactions()); n != 2 {
		t.Fatalf("abortable = %d", n) // T0.0 and T0.1 (not the root)
	}
	if v, ok := s.CommitValue("T0.0"); !ok || v != int64(1) {
		t.Fatal("CommitValue")
	}
	if !s.CreateRequested("T0.1") || s.CreateRequested("T0.7") {
		t.Fatal("CreateRequested")
	}
}

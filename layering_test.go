package nestedtx_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestRuntimeDoesNotImportTools pins the layering rule: the runtime — the
// embedded library, its Go client, the server and the txserver binary —
// never links the simulator, the experiment drivers, the fault proxy or
// the comparison engine. Dependencies point from tools to runtime only.
func TestRuntimeDoesNotImportTools(t *testing.T) {
	runtime := []string{"nestedtx", "nestedtx/client", "nestedtx/internal/server", "nestedtx/cmd/txserver"}
	tools := map[string]bool{
		"nestedtx/internal/dst":       true,
		"nestedtx/internal/dst/clock": true,
		"nestedtx/internal/sim":       true,
		"nestedtx/internal/faultnet":  true,
		"nestedtx/internal/mvto":      true,
	}
	for _, pkg := range runtime {
		out, err := exec.Command("go", "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		for _, dep := range strings.Fields(string(out)) {
			if tools[dep] {
				t.Errorf("%s (runtime) depends on %s (tool)", pkg, dep)
			}
		}
	}
}

// TestSnapIsTheReadSidesLeaf: internal/snap is what every reader —
// root package, server, replica, checker — is served from or checks, so
// it may depend on nothing in this module but the data types and the
// metrics registry; importing the checker, the lock manager or the root
// package would close a cycle through one of them.
func TestSnapIsTheReadSidesLeaf(t *testing.T) {
	allowed := map[string]bool{
		"nestedtx/internal/snap": true,
		"nestedtx/internal/adt":  true,
		"nestedtx/internal/obs":  true,
	}
	out, err := exec.Command("go", "list", "-deps", "nestedtx/internal/snap").Output()
	if err != nil {
		t.Fatalf("go list -deps nestedtx/internal/snap: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if (dep == "nestedtx" || strings.HasPrefix(dep, "nestedtx/")) && !allowed[dep] {
			t.Errorf("internal/snap depends on %s", dep)
		}
	}
}

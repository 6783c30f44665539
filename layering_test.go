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

package nestedtx_test

import (
	"go/parser"
	"go/token"
	"os/exec"
	"slices"
	"strconv"
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
// it may depend on nothing in this module but the data types, the
// metrics registry and the slab and index it cuts and finds objects
// with; importing the checker, the lock manager or the root package
// would close a cycle through one of them. internal/slab is admitted
// only as a leaf: it imports nothing of this module.
func TestSnapIsTheReadSidesLeaf(t *testing.T) {
	allowed := map[string]bool{
		"nestedtx/internal/snap":  true,
		"nestedtx/internal/adt":   true,
		"nestedtx/internal/jscan": true,
		"nestedtx/internal/obs":   true,
		"nestedtx/internal/slab":  true,
	}
	for _, dep := range depsOf(t, "nestedtx/internal/snap") {
		if !allowed[dep] {
			t.Errorf("internal/snap depends on %s", dep)
		}
	}
	for _, dep := range depsOf(t, "nestedtx/internal/slab") {
		if dep != "nestedtx/internal/slab" {
			t.Errorf("internal/slab depends on %s", dep)
		}
	}
}

// depsOf lists the packages of this module pkg depends on, itself
// included.
func depsOf(t *testing.T, pkg string) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", pkg).Output()
	if err != nil {
		t.Fatalf("go list -deps %s: %v", pkg, err)
	}
	var deps []string
	for _, dep := range strings.Fields(string(out)) {
		if dep == "nestedtx" || strings.HasPrefix(dep, "nestedtx/") {
			deps = append(deps, dep)
		}
	}
	return deps
}

// TestLogDoesNotImportTheProof: the write-ahead log renders what it
// recovered as a schedule and stops there; certifying it is the
// checker's job, done by the log's readers (the root package, txwal,
// dst). The log links neither the checker nor the formal automata it
// runs on.
func TestLogDoesNotImportTheProof(t *testing.T) {
	for _, dep := range importsOf(t, "nestedtx/internal/wal") {
		switch dep {
		case "nestedtx/internal/checker", "nestedtx/internal/core", "nestedtx/internal/serial":
			t.Errorf("internal/wal imports %s", dep)
		}
	}
}

// importsOf lists pkg's direct imports, sorted.
func importsOf(t *testing.T, pkg string) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", `{{join .Imports "\n"}}`, pkg).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", pkg, err)
	}
	return strings.Fields(string(out))
}

// TestJscanIsTheCodecsLeaf: the hand-written JSON layer sits under the
// three codecs and on nothing — standard library only, and not
// encoding/json, which it exists to replace on the hot frames. The adt
// codec has no reflective path left at all, and the layers above the
// wire (client, server) never marshal a Request or Response themselves,
// nor does replication, which ships the log's own frames: they do not
// import encoding/json.
func TestJscanIsTheCodecsLeaf(t *testing.T) {
	for _, dep := range importsOf(t, "nestedtx/internal/jscan") {
		if dep == "encoding/json" || dep == "reflect" || strings.Contains(dep, ".") || strings.HasPrefix(dep, "nestedtx") {
			t.Errorf("internal/jscan imports %s", dep)
		}
	}
	for _, codec := range []string{"nestedtx/internal/adt", "nestedtx/internal/wire", "nestedtx/internal/wal"} {
		if !slices.Contains(importsOf(t, codec), "nestedtx/internal/jscan") {
			t.Errorf("%s does not import internal/jscan", codec)
		}
	}
	for _, pkg := range []string{"nestedtx/internal/adt", "nestedtx/client", "nestedtx/internal/server", "nestedtx/internal/repl"} {
		if slices.Contains(importsOf(t, pkg), "encoding/json") {
			t.Errorf("%s imports encoding/json", pkg)
		}
	}
}

// TestPublishedNumbersAreDeclaredInObs: internal/obs declares every
// number METRICS publishes, so it sits under everything that counts or
// carries them and imports nothing of ours; internal/wire carries its
// structs and the adt codec's payloads and nothing else; and
// the client reaches the lock manager's and the server's counter blocks
// through those structs, never by importing the packages that fill them.
func TestPublishedNumbersAreDeclaredInObs(t *testing.T) {
	inModule := func(pkg string) []string {
		return slices.DeleteFunc(importsOf(t, pkg), func(dep string) bool {
			return dep != "nestedtx" && !strings.HasPrefix(dep, "nestedtx/")
		})
	}
	if deps := inModule("nestedtx/internal/obs"); len(deps) != 0 {
		t.Errorf("internal/obs imports %v, want nothing from this module", deps)
	}
	want := []string{"nestedtx/internal/adt", "nestedtx/internal/jscan", "nestedtx/internal/obs"}
	if deps := inModule("nestedtx/internal/wire"); !slices.Equal(deps, want) {
		t.Errorf("internal/wire imports %v, want exactly %v", deps, want)
	}
	for _, dep := range inModule("nestedtx/client") {
		if dep == "nestedtx/internal/server" || dep == "nestedtx/internal/lockmgr" {
			t.Errorf("client imports %s", dep)
		}
	}
}

// TestUnsafeIsConfined: one function aliases memory, Manager.begin, which
// makes a transaction's name a string over bytes inside its Tx. No other
// package of the module imports unsafe outside its tests, and within the
// root package only tx.go does.
func TestUnsafeIsConfined(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "nestedtx/...").Output()
	if err != nil {
		t.Fatalf("go list nestedtx/...: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if f[0] != "nestedtx" && slices.Contains(f[1:], "unsafe") {
			t.Errorf("%s imports unsafe", f[0])
		}
	}
	out, err = exec.Command("go", "list", "-f", `{{join .GoFiles " "}}`, "nestedtx").Output()
	if err != nil {
		t.Fatalf("go list nestedtx: %v", err)
	}
	for _, name := range strings.Fields(string(out)) {
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "unsafe" && name != "tx.go" {
				t.Errorf("%s imports unsafe", name)
			}
		}
	}
}

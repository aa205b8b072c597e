package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module on disk. Naming it
// "prefix" puts its internal/ packages inside the deterministic scope,
// so the nodeterminism analyzer fires on the seeded files exactly as it
// would in the real tree.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	all := map[string]string{"go.mod": "module prefix\n\ngo 1.21\n"}
	for name, src := range files {
		all[name] = src
	}
	for name, src := range all {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const violatingSource = `package sim

import (
	"fmt"
	"io"
	"time"
)

func stamp() time.Time {
	return time.Now()
}

func dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s %d\n", k, v)
	}
}
`

const cleanSource = `package sim

import (
	"fmt"
	"io"
	"sort"
)

func dump(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, m[k])
	}
}
`

func TestCLIReportsSeededViolations(t *testing.T) {
	dir := writeModule(t, map[string]string{"internal/sim/sim.go": violatingSource})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "time.Now") || !strings.Contains(out, "(nodeterminism)") {
		t.Errorf("stdout missing the nodeterminism finding:\n%s", out)
	}
	if !strings.Contains(out, "io.Writer") || !strings.Contains(out, "(mapiter)") {
		t.Errorf("stdout missing the mapiter finding:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "2 issue(s)") {
		t.Errorf("stderr missing the diagnostic count: %q", stderr.String())
	}
}

func TestCLICleanTreeExitsZero(t *testing.T) {
	dir := writeModule(t, map[string]string{"internal/sim/sim.go": cleanSource})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", stdout.String())
	}
}

func TestCLIJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{"internal/sim/sim.go": violatingSource})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var diags []struct {
		Analyzer string
		File     string
		Line     int
		Message  string
	}
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 2 {
		t.Fatalf("got %d JSON diagnostics, want 2: %+v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer == "" || d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("diagnostic missing fields: %+v", d)
		}
	}
}

func TestCLIBadPatternExitsTwo(t *testing.T) {
	dir := writeModule(t, nil)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./no/such/pkg"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, stderr.String())
	}
}

func TestCLIListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"nodeterminism", "mapiter", "spanend", "metricname",
		"hotalloc", "hotcall", "escapebudget"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout.String())
		}
	}
}

func TestCLIAnalyzersSelection(t *testing.T) {
	dir := writeModule(t, map[string]string{"internal/sim/sim.go": violatingSource})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "-analyzers", "mapiter", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "(mapiter)") {
		t.Errorf("selected analyzer did not report:\n%s", out)
	}
	if strings.Contains(out, "(nodeterminism)") {
		t.Errorf("unselected analyzer reported anyway:\n%s", out)
	}
}

func TestCLIUnknownAnalyzerExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing unknown-analyzer message: %q", stderr.String())
	}
}

// hotpathSource seeds the acceptance scenario: a //prefix:hotpath
// function that picked up a fmt.Sprintf and a defer.
const hotpathSource = `package sim

import "fmt"

type cache struct{ hits, misses uint64 }

func (c *cache) note() {}

//prefix:hotpath
func (c *cache) Access(addr uint64) bool {
	defer c.note()
	_ = fmt.Sprintf("access %d", addr)
	if addr&1 == 0 {
		c.hits++
		return true
	}
	c.misses++
	return false
}
`

func TestCLIHotpathFindingsNameTheConstruct(t *testing.T) {
	dir := writeModule(t, map[string]string{"internal/sim/hot.go": hotpathSource})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "-analyzers", "hotalloc,hotcall", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "fmt.Sprintf allocates") || !strings.Contains(out, "(hotalloc)") {
		t.Errorf("stdout missing the hotalloc fmt.Sprintf finding:\n%s", out)
	}
	if !strings.Contains(out, "defer in hot-path function cache.Access") || !strings.Contains(out, "(hotcall)") {
		t.Errorf("stdout missing the hotcall defer finding:\n%s", out)
	}
}

// escapingSource has one annotated function whose local provably moves
// to the heap — the escapebudget record/check round-trip fixture.
const escapingSource = `package sim

//prefix:hotpath
func Leak() *int {
	x := 7
	return &x
}
`

func TestCLIEscapeBudgetRecordRoundTrip(t *testing.T) {
	dir := writeModule(t, map[string]string{"internal/sim/leak.go": escapingSource})
	budget := filepath.Join(dir, "testdata", "escape-budget.json")
	lint := func(args ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-C", dir}, args...), &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}

	// No budget yet: check mode demands a recording.
	code, out, serr := lint("-analyzers", "escapebudget", "./...")
	if code != 1 || !strings.Contains(out, "no escape-budget entry for prefix/internal/sim.Leak") {
		t.Fatalf("missing-budget run: code=%d\nstdout:\n%s\nstderr:\n%s", code, out, serr)
	}

	// Record, then record again: the file must be byte-stable.
	if code, out, serr = lint("-analyzers", "escapebudget", "-record", "./..."); code != 0 {
		t.Fatalf("record run failed: code=%d\nstdout:\n%s\nstderr:\n%s", code, out, serr)
	}
	first, err := os.ReadFile(budget)
	if err != nil {
		t.Fatalf("budget not written: %v", err)
	}
	if !strings.Contains(string(first), "prefix/internal/sim.Leak") ||
		!strings.Contains(string(first), "moved to heap: x") {
		t.Fatalf("recorded budget missing the Leak entry:\n%s", first)
	}
	if code, _, serr = lint("-analyzers", "escapebudget", "-record", "./..."); code != 0 {
		t.Fatalf("second record run failed: code=%d\nstderr:\n%s", code, serr)
	}
	second, err := os.ReadFile(budget)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two consecutive -record runs differ:\n--- first\n%s\n--- second\n%s", first, second)
	}

	// Check mode against the fresh budget is clean.
	if code, out, serr = lint("-analyzers", "escapebudget", "./..."); code != 0 {
		t.Fatalf("in-budget check failed: code=%d\nstdout:\n%s\nstderr:\n%s", code, out, serr)
	}

	// A new escape beyond the recorded budget is a finding.
	grown := escapingSource + `
//prefix:hotpath
func Leak2() *uint64 {
	y := uint64(9)
	return &y
}
`
	if err := os.WriteFile(filepath.Join(dir, "internal/sim/leak.go"), []byte(grown), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, serr = lint("-analyzers", "escapebudget", "./...")
	if code != 1 || !strings.Contains(out, "no escape-budget entry for prefix/internal/sim.Leak2") {
		t.Fatalf("grown-escape check: code=%d\nstdout:\n%s\nstderr:\n%s", code, out, serr)
	}

	// A package whose hot-path functions are all gone drops its entries
	// on the next recording.
	plain := strings.ReplaceAll(grown, "//prefix:hotpath\n", "")
	if err := os.WriteFile(filepath.Join(dir, "internal/sim/leak.go"), []byte(plain), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, serr = lint("-analyzers", "escapebudget", "-record", "./..."); code != 0 {
		t.Fatalf("record after removal failed: code=%d\nstderr:\n%s", code, serr)
	}
	pruned, err := os.ReadFile(budget)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(pruned), "prefix/internal/sim.") {
		t.Fatalf("stale entries survived re-recording:\n%s", pruned)
	}
}

func TestVettoolFlagsHandshake(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-flags"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("-flags printed %q, want []", stdout.String())
	}
}

func TestVettoolVersionHandshake(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-V=full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if !strings.Contains(stdout.String(), " version ") {
		t.Errorf("-V=full printed %q, want a tool-version line", stdout.String())
	}
}

// writeVetCfg emulates the .cfg file cmd/go hands a -vettool for one
// compilation unit.
func writeVetCfg(t *testing.T, modDir, pkgRel, importPath string, vetxOnly bool) (cfgPath, vetxPath string) {
	t.Helper()
	pkgDir := filepath.Join(modDir, pkgRel)
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatal(err)
	}
	var goFiles []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, filepath.Join(pkgDir, e.Name()))
		}
	}
	vetxPath = filepath.Join(t.TempDir(), "unit.vetx")
	cfg := vetConfig{
		ID:         importPath,
		Dir:        pkgDir,
		ImportPath: importPath,
		GoFiles:    goFiles,
		VetxOnly:   vetxOnly,
		VetxOutput: vetxPath,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath = filepath.Join(t.TempDir(), "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return cfgPath, vetxPath
}

func TestVettoolUnitReportsViolations(t *testing.T) {
	dir := writeModule(t, map[string]string{"internal/sim/sim.go": violatingSource})
	cfgPath, vetxPath := writeVetCfg(t, dir, "internal/sim", "prefix/internal/sim", false)
	var stdout, stderr bytes.Buffer
	code := run([]string{cfgPath}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "(nodeterminism)") || !strings.Contains(stderr.String(), "(mapiter)") {
		t.Errorf("unit-mode stderr missing findings:\n%s", stderr.String())
	}
	if _, err := os.Stat(vetxPath); err != nil {
		t.Errorf("VetxOutput facts file was not written: %v", err)
	}
}

func TestVettoolUnitVetxOnly(t *testing.T) {
	dir := writeModule(t, map[string]string{"internal/sim/sim.go": violatingSource})
	cfgPath, vetxPath := writeVetCfg(t, dir, "internal/sim", "prefix/internal/sim", true)
	var stdout, stderr bytes.Buffer
	if code := run([]string{cfgPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("VetxOnly exit code = %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	if _, err := os.Stat(vetxPath); err != nil {
		t.Errorf("VetxOutput facts file was not written: %v", err)
	}
}

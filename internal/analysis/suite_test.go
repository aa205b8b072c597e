package analysis_test

import (
	"testing"

	"prefix/internal/analysis"
	"prefix/internal/analysis/analysistest"
)

// mustLookup fetches an analyzer through the registry, so deleting a
// registration from All() fails that analyzer's golden test here rather
// than only going dark in the CLI.
func mustLookup(t *testing.T, name string) *analysis.Analyzer {
	t.Helper()
	a := analysis.Lookup(name)
	if a == nil {
		t.Fatalf("analyzer %q is not registered in analysis.All()", name)
	}
	return a
}

func TestNodeterminismGolden(t *testing.T) {
	// The golden's import path puts it inside the deterministic scope.
	analysistest.Run(t, mustLookup(t, "nodeterminism"), "prefix/internal/machine")
}

func TestNodeterminismOutOfScope(t *testing.T) {
	// Identical constructs outside prefix/internal must stay silent.
	analysistest.Run(t, mustLookup(t, "nodeterminism"), "cleanscope")
}

func TestMapiterGolden(t *testing.T) {
	analysistest.Run(t, mustLookup(t, "mapiter"), "mapiter")
}

func TestSpanendGolden(t *testing.T) {
	analysistest.Run(t, mustLookup(t, "spanend"), "spanend")
}

func TestMetricnameGolden(t *testing.T) {
	analysistest.Run(t, mustLookup(t, "metricname"), "metricname")
}

func TestHotallocGolden(t *testing.T) {
	analysistest.Run(t, mustLookup(t, "hotalloc"), "hotalloc")
}

func TestHotcallGolden(t *testing.T) {
	analysistest.Run(t, mustLookup(t, "hotcall"), "hotcall")
}

func TestEscapebudgetGolden(t *testing.T) {
	// The golden directory carries its own escape-budget.json, which
	// takes precedence over the repo-level budget; its entries encode a
	// grown escape, a lost inline, a missing entry, a suppressed
	// finding, and a clean function.
	analysistest.Run(t, mustLookup(t, "escapebudget"), "escapebudget")
}

func TestStaleDirectiveGolden(t *testing.T) {
	// The runner, not an analyzer, reports stale suppressions; any
	// analyzer exercises it. The fixture runs under mapiter.
	analysistest.Run(t, mustLookup(t, "mapiter"), "stale")
}

func TestNodeterminismCmdScope(t *testing.T) {
	// Satellite: the deterministic scope now covers the CLIs too.
	analysistest.Run(t, mustLookup(t, "nodeterminism"), "prefix/cmd/clitool")
}

func TestAllRegistered(t *testing.T) {
	want := []string{"nodeterminism", "mapiter", "spanend", "metricname",
		"hotalloc", "hotcall", "escapebudget"}
	got := analysis.All()
	if len(got) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Errorf("All()[%d] = %q, want %q", i, got[i].Name, name)
		}
		if got[i].Doc == "" || got[i].Run == nil {
			t.Errorf("analyzer %q is missing Doc or Run", name)
		}
	}
}

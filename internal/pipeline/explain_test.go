package pipeline

import (
	"reflect"
	"testing"

	"prefix/internal/prefix"
)

// attribOpt is fastOpt with attribution collection on.
func attribOpt() Options {
	opt := fastOpt()
	opt.Attribution = true
	return opt
}

// TestAttributionDifferential: attribution is purely observational — a
// benchmark evaluated with it on reproduces the exact metrics of the
// plain run, for every strategy and variant.
func TestAttributionDifferential(t *testing.T) {
	plain, err := RunBenchmark("swissmap", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	attr, err := RunBenchmark("swissmap", attribOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Baseline.Metrics, attr.Baseline.Metrics) {
		t.Error("attribution changed the baseline metrics")
	}
	if !reflect.DeepEqual(plain.HDS.Metrics, attr.HDS.Metrics) ||
		!reflect.DeepEqual(plain.HALO.Metrics, attr.HALO.Metrics) {
		t.Error("attribution changed a baseline strategy's metrics")
	}
	for v, pr := range plain.PreFix {
		if !reflect.DeepEqual(pr.Metrics, attr.PreFix[v].Metrics) {
			t.Errorf("attribution changed %v metrics", v)
		}
	}
	if plain.Best != attr.Best || plain.Events != attr.Events {
		t.Error("attribution changed the verdict or the event count")
	}
	if plain.Baseline.Attrib.Enabled || len(plain.Baseline.Attrib.Sites) != 0 {
		t.Error("plain run carries an attribution snapshot")
	}
}

// TestAttributionSumInvariant is the acceptance check: for every run in
// an attributed comparison, the per-site attributed misses sum to the
// run's aggregate Counts exactly — every event lands in exactly one cell.
func TestAttributionSumInvariant(t *testing.T) {
	cmp, err := RunBenchmark("swissmap", attribOpt())
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]RunResult{"baseline": cmp.Baseline, "hds": cmp.HDS, "halo": cmp.HALO}
	for v, r := range cmp.PreFix {
		runs[v.String()] = r
	}
	for name, r := range runs {
		if !r.Attrib.Enabled {
			t.Fatalf("%s: no attribution snapshot", name)
		}
		if got, want := r.Attrib.Total(), r.Metrics.Cache; got != want {
			t.Errorf("%s: attributed sum %+v != aggregate counts %+v", name, got, want)
		}
	}
}

// TestBuildExplain: the explain document names the top sites by baseline
// LLC-miss share and joins each with its ledger decisions from the best
// variant's plan build.
func TestBuildExplain(t *testing.T) {
	cmp, err := RunBenchmark("swissmap", attribOpt())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := BuildExplain(cmp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ex == nil {
		t.Fatal("BuildExplain returned nil for an attributed comparison")
	}
	if ex.Benchmark != "swissmap" || ex.Variant != cmp.Best.String() {
		t.Errorf("header = %s/%s", ex.Benchmark, ex.Variant)
	}
	if ex.BaselineLLCMisses != cmp.Baseline.Metrics.Cache.LLCMisses {
		t.Errorf("baseline total %d != aggregate %d", ex.BaselineLLCMisses, cmp.Baseline.Metrics.Cache.LLCMisses)
	}
	if ex.Decisions == 0 {
		t.Error("best variant's ledger is empty")
	}
	if len(ex.Sites) == 0 || len(ex.Sites) > 3 {
		t.Fatalf("sites = %d, want 1..3", len(ex.Sites))
	}
	for i, s := range ex.Sites {
		if i > 0 && s.Baseline.LLCMisses > ex.Sites[i-1].Baseline.LLCMisses {
			t.Error("sites not ordered by baseline LLC misses")
		}
		if s.Baseline.SharePct < 0 || s.Baseline.SharePct > 100 {
			t.Errorf("site %d share %.2f out of range", s.Site, s.Baseline.SharePct)
		}
		for _, d := range s.Decisions {
			if d.Reason == "" {
				t.Errorf("site %d decision %s/%s has no reason", s.Site, d.Stage, d.Kind)
			}
		}
		placements := 0
		for _, d := range s.Decisions {
			if d.Stage == prefix.StagePlacement {
				placements++
			}
		}
		if placements > maxSiteDecisions {
			t.Errorf("site %d quotes %d placement decisions, cap is %d", s.Site, placements, maxSiteDecisions)
		}
		if s.Placements < placements {
			t.Errorf("site %d total placements %d < quoted %d", s.Site, s.Placements, placements)
		}
	}
	// The hottest site must carry at least one ledger decision: the smoke
	// acceptance requires a reason for every top site's placement.
	if len(ex.Sites[0].Decisions) == 0 && ex.Sites[0].Site != 0 {
		t.Error("hottest site has no ledger decisions")
	}
}

// TestBuildExplainNil: nil comparisons and unattributed runs yield nil
// without an error.
func TestBuildExplainNil(t *testing.T) {
	if ex, err := BuildExplain(nil, 3); ex != nil || err != nil {
		t.Errorf("BuildExplain(nil) = %v, %v; want nil, nil", ex, err)
	}
	cmp, err := RunBenchmark("swissmap", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if ex, err := BuildExplain(cmp, 3); ex != nil || err != nil {
		t.Errorf("BuildExplain(unattributed) = %v, %v; want nil, nil", ex, err)
	}
}

// TestBuildExplainNeedsBaselineAndPreFix: an attributed comparison that
// did not simulate the baseline or PreFix is an error, not a document
// of zero misses; one that simulated only those two explains exactly as
// the full comparison does.
func TestBuildExplainNeedsBaselineAndPreFix(t *testing.T) {
	full, err := RunBenchmark("swissmap", attribOpt())
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildExplain(full, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := attribOpt()
	opt.Demand = Demanding(StrategyBaseline | StrategyPreFix)
	minimal, err := RunBenchmark("swissmap", opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := BuildExplain(minimal, 3); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("baseline+prefix demand: BuildExplain = %+v, %v; want %+v", got, err, want)
	}
	for _, s := range []Strategies{StrategyBaseline, StrategyPreFix} {
		cmp := *full
		cmp.Ran = Demanding(AllStrategies &^ s)
		if ex, err := BuildExplain(&cmp, 3); err == nil {
			t.Errorf("without %s: BuildExplain = %+v, want an error", s, ex)
		}
	}
}

// TestAttributionLedgersOnSummaries: every variant's summary carries a
// populated ledger when attribution is on, and none when off.
func TestAttributionLedgersOnSummaries(t *testing.T) {
	cmp, err := RunBenchmark("swissmap", attribOpt())
	if err != nil {
		t.Fatal(err)
	}
	for v, sum := range cmp.Summaries {
		if sum.Ledger == nil || sum.Ledger.Len() == 0 {
			t.Errorf("%v: summary has no ledger", v)
		}
	}
	plain, err := RunBenchmark("swissmap", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	for v, sum := range plain.Summaries {
		if sum.Ledger != nil {
			t.Errorf("%v: unattributed run recorded a ledger", v)
		}
	}
}

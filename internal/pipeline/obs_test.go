package pipeline

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"prefix/internal/obs"
	"prefix/internal/prefix"
	"prefix/internal/trace"
)

// TestObsNoopParity is the acceptance guarantee of the instrumentation:
// running with a registry and tracer attached must leave every reported
// number bit-identical to an uninstrumented run.
func TestObsNoopParity(t *testing.T) {
	opt := DefaultOptions()
	opt.UseBenchScale = true
	plain, err := RunBenchmark("mcf", opt)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	opt2 := DefaultOptions()
	opt2.UseBenchScale = true
	opt2.Metrics = obs.NewRegistry()
	opt2.Tracer = obs.NewTracer()
	instr, err := RunBenchmark("mcf", opt2)
	if err != nil {
		t.Fatalf("instrumented run: %v", err)
	}

	if !reflect.DeepEqual(plain.Baseline.Metrics, instr.Baseline.Metrics) {
		t.Errorf("baseline metrics differ:\n  plain: %v\n  instr: %v", plain.Baseline.Metrics, instr.Baseline.Metrics)
	}
	if !reflect.DeepEqual(plain.HDS.Metrics, instr.HDS.Metrics) ||
		!reflect.DeepEqual(plain.HALO.Metrics, instr.HALO.Metrics) {
		t.Error("prior-technique metrics differ between instrumented and plain runs")
	}
	for _, v := range opt.Variants {
		if plain.PreFix[v].Metrics.Cycles != instr.PreFix[v].Metrics.Cycles {
			t.Errorf("%v cycles differ: plain %v, instrumented %v",
				v, plain.PreFix[v].Metrics.Cycles, instr.PreFix[v].Metrics.Cycles)
		}
	}
	if plain.Best != instr.Best {
		t.Errorf("best variant differs: plain %v, instrumented %v", plain.Best, instr.Best)
	}

	// The registry must agree with the pipeline's own report.
	got := opt2.Metrics.Gauge("prefix_run_cycles", "benchmark", "mcf", "run", "baseline").Value()
	if got != plain.Baseline.Metrics.Cycles {
		t.Errorf("registry cycles = %v, want %v", got, plain.Baseline.Metrics.Cycles)
	}
	if n := opt2.Metrics.Counter("prefix_run_mallocs_total", "benchmark", "mcf", "run", "baseline").Value(); n != plain.Baseline.Metrics.Mallocs {
		t.Errorf("registry mallocs = %d, want %d", n, plain.Baseline.Metrics.Mallocs)
	}
}

// spanNames returns the names of a span's direct children.
func spanNames(s *obs.Span) []string {
	var names []string
	for _, c := range s.Children() {
		names = append(names, c.Name)
	}
	return names
}

// TestObsSpanTree asserts the expected Figure-8 phase tree for one small
// workload: profile (run/analyze/hotness/mining and the planner's
// variant-independent stages), one plan per variant holding its slot
// assignment, one eval per strategy — also for variants whose eval is
// reused from a same-behaviour plan.
func TestObsSpanTree(t *testing.T) {
	opt := DefaultOptions()
	opt.UseBenchScale = true
	opt.Variants = []prefix.Variant{prefix.VariantHDSHot}
	opt.Metrics = obs.NewRegistry()
	opt.Tracer = obs.NewTracer()
	if _, err := RunBenchmark("health", opt); err != nil {
		t.Fatal(err)
	}

	roots := opt.Tracer.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Name != "benchmark health" {
		t.Errorf("root span = %q", root.Name)
	}
	wantTop := []string{
		"profile",
		"plan prefix:hds+hot",
		"eval baseline",
		"eval hds",
		"eval halo",
		"eval prefix:hds+hot",
	}
	if got := spanNames(root); !reflect.DeepEqual(got, wantTop) {
		t.Errorf("top-level spans = %v, want %v", got, wantTop)
	}

	children := root.Children()
	wantProfile := []string{"profile-run", "analyze", "hotness", "hds-mining", "reconstitution", "context-inference", "recycling"}
	if got := spanNames(children[0]); !reflect.DeepEqual(got, wantProfile) {
		t.Errorf("profile spans = %v, want %v", got, wantProfile)
	}
	wantPlan := []string{"slot-assignment"}
	if got := spanNames(children[1]); !reflect.DeepEqual(got, wantPlan) {
		t.Errorf("plan spans = %v, want %v", got, wantPlan)
	}

	// Every span must be closed and folded into the stage histogram.
	var total int
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		total++
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	if n := opt.Metrics.Histogram("prefix_stage_seconds", nil).Count(); n != uint64(total) {
		t.Errorf("stage histogram count = %d, want %d (one per span)", n, total)
	}

	// The exporters must accept the real pipeline output.
	var prom, chrome strings.Builder
	if err := opt.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{
		"# TYPE prefix_run_cycles gauge",
		`prefix_run_mallocs_total{benchmark="health",run="baseline"}`,
		`prefix_capture_mallocs_avoided_total{benchmark="health",run="prefix:hds+hot"}`,
		"# TYPE prefix_stage_seconds histogram",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	if err := opt.Tracer.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !strings.Contains(chrome.String(), `"name": "reconstitution"`) {
		t.Error("chrome trace missing planner stage span")
	}

	// roms's three variants place plans of one behaviour: only prefix:hot
	// is simulated, yet every variant keeps its eval span, the other two
	// marked as reused from it with the same totals.
	opt = DefaultOptions()
	opt.UseBenchScale = true
	opt.Tracer = obs.NewTracer()
	if _, err := RunBenchmark("roms", opt); err != nil {
		t.Fatal(err)
	}
	evals := make(map[string]*obs.Span)
	for _, s := range opt.Tracer.Roots()[0].Children() {
		if strings.HasPrefix(s.Name, "eval prefix:") {
			evals[s.Name] = s
		}
	}
	hot := evals["eval prefix:hot"]
	if len(evals) != len(opt.Variants) || hot == nil {
		t.Fatalf("roms eval spans = %v, want one per variant", evals)
	}
	if from, ok := spanArg(hot, "reused_from"); ok {
		t.Errorf("eval prefix:hot reused from %v, want it simulated", from)
	}
	for _, v := range []prefix.Variant{prefix.VariantHDS, prefix.VariantHDSHot} {
		s := evals["eval "+v.String()]
		if from, _ := spanArg(s, "reused_from"); from != "prefix:hot" {
			t.Errorf("%s: reused_from = %v, want prefix:hot", s.Name, from)
		}
		for _, key := range []string{"cycles", "instructions"} {
			got, _ := spanArg(s, key)
			want, _ := spanArg(hot, key)
			if got != want {
				t.Errorf("%s: %s = %v, want prefix:hot's %v", s.Name, key, got, want)
			}
		}
	}
}

// TestObsFigure9SpanTree: Figure 9 on a comparison evaluates the two
// analyzed runs and nothing else — no profile, plan or variant
// selection of its own — and publishes them under phase=figure9.
func TestObsFigure9SpanTree(t *testing.T) {
	cmp, err := RunBenchmark("swissmap", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpt()
	opt.Metrics = obs.NewRegistry()
	opt.Tracer = obs.NewTracer()
	if err := AnalyzeBaselineAndBest(cmp, opt, 2, func(bool, *trace.Analysis) {}); err != nil {
		t.Fatal(err)
	}
	roots := opt.Tracer.Roots()
	if len(roots) != 1 || roots[0].Name != "figure9 swissmap" {
		t.Fatalf("%d root spans, want one \"figure9 swissmap\"", len(roots))
	}
	got := spanNames(roots[0])
	sort.Strings(got) // the two jobs open their spans in either order
	want := []string{"eval baseline", "eval " + cmp.Best.String()}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("figure9 spans = %v, want %v", got, want)
	}
	cycles := opt.Metrics.Gauge("prefix_run_cycles", "benchmark", "swissmap", "run", "baseline", "phase", "figure9").Value()
	if cycles != cmp.Baseline.Metrics.Cycles {
		t.Errorf("phase=figure9 baseline cycles = %v, want %v", cycles, cmp.Baseline.Metrics.Cycles)
	}
}

// TestObsMultithreadedSpanTree asserts that Figure 10's profiling and
// planning show under its root span, ahead of the per-thread-count
// evaluations, with the planner's stages under the plan span.
func TestObsMultithreadedSpanTree(t *testing.T) {
	opt := DefaultOptions()
	opt.UseBenchScale = true
	opt.Tracer = obs.NewTracer()
	if _, err := RunMultithreaded("mcf", []int{1, 2}, opt); err != nil {
		t.Fatal(err)
	}
	roots := opt.Tracer.Roots()
	if len(roots) != 1 || roots[0].Name != "multithreaded mcf" {
		t.Fatalf("%d root spans, want one \"multithreaded mcf\"", len(roots))
	}
	wantTop := []string{"profile", "plan prefix:hot", "eval threads=1", "eval threads=2"}
	if got := spanNames(roots[0]); !reflect.DeepEqual(got, wantTop) {
		t.Errorf("top-level spans = %v, want %v", got, wantTop)
	}
	wantPlan := []string{"hds-mining", "reconstitution", "context-inference", "recycling", "slot-assignment"}
	if got := spanNames(roots[0].Children()[1]); !reflect.DeepEqual(got, wantPlan) {
		t.Errorf("plan spans = %v, want %v", got, wantPlan)
	}
}

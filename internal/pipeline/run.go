package pipeline

import (
	"fmt"

	"prefix/internal/baselines"
	"prefix/internal/hds"
	"prefix/internal/machine"
	"prefix/internal/obs"
	"prefix/internal/obs/perfstat"
	"prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// RunResult is one evaluation run under one allocation strategy.
type RunResult struct {
	Strategy  string
	Metrics   machine.Metrics
	PeakBytes uint64
	// Attrib is the per-site attribution snapshot (Enabled only when the
	// run executed with Options.Attribution).
	Attrib machine.AttribCounts
	// Pollution is set for the HDS and HALO baselines (Table 4).
	Pollution *baselines.Pollution
	// Capture is set for PreFix runs (Tables 5 and 6).
	Capture *prefix.Capture
	// Trace is an evaluation trace for callers that record one
	// themselves.
	//
	// Deprecated: no pipeline path fills it any more; runs are analyzed
	// while they execute. It stays only for the benchmark replica, and
	// goes with it (ROADMAP item 8).
	Trace *trace.Trace
}

// TimeDeltaPct returns the execution-time change of this run relative to
// base, in percent (negative = reduction, the paper's Table 3 convention).
func (r RunResult) TimeDeltaPct(base RunResult) float64 {
	if base.Metrics.Cycles == 0 {
		return 0
	}
	return 100 * (r.Metrics.Cycles - base.Metrics.Cycles) / base.Metrics.Cycles
}

// evalConfig returns the evaluation-run workload configuration.
func evalConfig(spec workloads.Spec, opt Options) workloads.Config {
	if opt.UseBenchScale {
		return spec.Bench
	}
	return spec.Long
}

// runOne executes the evaluation input on one strategy, emitting an
// "eval <strategy>" span under parent and publishing the run's metrics
// when opt carries a registry. mopts are extra machine options, such as
// a recorder that analyzes the run.
func runOne(spec workloads.Spec, opt Options, alloc machine.Allocator, parent *obs.Span, mopts ...machine.Option) RunResult {
	span := parent.Child("eval " + alloc.Name())
	if opt.Attribution {
		mopts = append(mopts, machine.WithAttribution())
	}
	m := machine.New(alloc, opt.Cache, mopts...)
	spec.Program.Run(m, evalConfig(spec, opt))
	res := RunResult{Strategy: alloc.Name(), Metrics: m.Finish(), Attrib: m.Attrib()}
	reg := opt.Metrics
	kv := append([]string{"benchmark", spec.Program.Name(), "run", alloc.Name()}, opt.Labels...)
	switch a := alloc.(type) {
	case *baselines.Baseline:
		res.PeakBytes = a.PeakBytes()
	case *baselines.HDSAlloc:
		res.PeakBytes = a.PeakBytes()
		p := a.Pollution()
		res.Pollution = &p
		p.Publish(reg, kv...)
	case *baselines.HALO:
		res.PeakBytes = a.PeakBytes()
		p := a.Pollution()
		res.Pollution = &p
		p.Publish(reg, kv...)
	case *prefix.Allocator:
		res.PeakBytes = a.PeakBytes()
		c := a.Capture()
		res.Capture = &c
		a.Publish(reg, kv...)
	}
	if reg != nil {
		res.Metrics.Publish(reg, kv...)
		reg.Gauge("prefix_run_peak_bytes", kv...).Set(float64(res.PeakBytes))
		res.Attrib.Publish(reg, kv...)
	}
	span.Set("cycles", res.Metrics.Cycles)
	span.Set("instructions", res.Metrics.Instr)
	span.End()
	return res
}

// Comparison is the full evaluation of one benchmark: every strategy's
// run, the plans, and the profile it was all derived from.
type Comparison struct {
	Benchmark string
	Profile   *Profile
	Baseline  RunResult
	HDS       RunResult
	HALO      RunResult
	PreFix    map[prefix.Variant]RunResult
	Plans     map[prefix.Variant]*prefix.Plan
	Summaries map[prefix.Variant]*prefix.Summary
	// Best is the best-performing PreFix variant (lowest cycles).
	Best prefix.Variant
	// LongRun is the Table 5 long-run analysis of the best variant's
	// recorded trace (nil unless CaptureLongRun).
	LongRun *LongRunCapture
	// Events is the total number of simulated events the benchmark's
	// profiling and evaluation runs generated (the events/sec numerator).
	Events uint64
	// Host is the benchmark job's measured host cost (wall time, heap
	// allocation, GC, events/sec), filled by the suite runner when
	// Options.Perf is attached; nil otherwise. Never feeds report output.
	Host *perfstat.Sample
}

// LongRunCapture compares what landed in the preallocated region during
// the evaluation run against the run's own hot set (Table 5, right half).
type LongRunCapture struct {
	// HeapAccessPct is the share of heap accesses served by preallocated
	// objects.
	HeapAccessPct float64
	// HotObjects is the number of hot objects captured in the region;
	// HDSObjects of those, the ones belonging to the run's own streams.
	HotObjects int
	HDSObjects int
	// CapturedObjects is everything placed in the region (spurious
	// captures would make this exceed HotObjects; PreFix's claim is that
	// it does not).
	CapturedObjects int
}

// BestResult returns the best PreFix run.
func (c *Comparison) BestResult() RunResult { return c.PreFix[c.Best] }

// RunBenchmark evaluates one benchmark end to end.
func RunBenchmark(name string, opt Options) (*Comparison, error) {
	spec, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	if len(opt.Variants) == 0 {
		opt.Variants = DefaultOptions().Variants
	}
	root := opt.Tracer.Start("benchmark " + name)
	profSpan := root.Child("profile")
	prof, err := collectProfile(spec, opt, profSpan)
	profSpan.End()
	if err != nil {
		root.End()
		return nil, err
	}
	plans, err := placeVariants(name, opt, prof, root)
	if err != nil {
		root.End()
		return nil, err
	}
	cmp, err := compareStrategies(spec, opt, prof, plans, root)
	root.End()
	if err == nil {
		cmp.Events += prof.Stats.Events
		root.ObserveDurations(opt.Metrics.Histogram("prefix_stage_seconds", obs.TimeBuckets))
	}
	return cmp, err
}

// variantPlans is one profile's plan and summary per configured variant.
type variantPlans struct {
	plans     map[prefix.Variant]*prefix.Plan
	summaries map[prefix.Variant]*prefix.Summary
}

// placeVariants places every configured variant's plan from the
// profile's preparation, one "plan <variant>" span each under parent.
// With Options.Attribution every summary carries its variant's ledger.
// Plans are read-only once built, so one set serves every evaluation
// input of the profile.
func placeVariants(name string, opt Options, prof *Profile, parent *obs.Span) (variantPlans, error) {
	vp := variantPlans{
		plans:     make(map[prefix.Variant]*prefix.Plan, len(opt.Variants)),
		summaries: make(map[prefix.Variant]*prefix.Summary, len(opt.Variants)),
	}
	for _, v := range opt.Variants {
		planSpan := parent.Child("plan " + v.String())
		var led *prefix.Ledger
		if opt.Attribution {
			led = prefix.NewLedger()
		}
		plan, sum, err := prof.Prepared.Place(v, planSpan, led)
		if err != nil {
			planSpan.End()
			return vp, fmt.Errorf("pipeline: %s %v: %w", name, v, err)
		}
		planSpan.Set("sites", plan.NumSites())
		planSpan.Set("counters", plan.NumCounters())
		planSpan.Set("region_bytes", plan.RegionSize)
		planSpan.End()
		vp.plans[v], vp.summaries[v] = plan, sum
	}
	return vp, nil
}

// compareStrategies runs the evaluation input under every strategy for an
// already-collected profile and its placed plans. The root span (nil when
// tracing is off) receives the per-run child spans.
func compareStrategies(spec workloads.Spec, opt Options, prof *Profile, vp variantPlans, root *obs.Span) (*Comparison, error) {
	name := spec.Program.Name()
	cmp := &Comparison{
		Benchmark: name,
		Profile:   prof,
		PreFix:    make(map[prefix.Variant]RunResult),
		Plans:     vp.plans,
		Summaries: vp.summaries,
	}

	cost := opt.Cache.Cost
	hotSet := baselines.HotSetOf(prof.Hot)

	// Baseline.
	cmp.Baseline = runOne(spec, opt, baselines.NewBaseline(cost), root)
	cmp.Events += cmp.Baseline.Metrics.Events()

	// HDS baseline: sites from Sequitur streams, per the original work.
	hdsSites := baselines.HDSSites(prof.Analysis, prof.StreamsSequitur)
	cmp.HDS = runOne(spec, opt, baselines.NewHDS(hdsSites, hotSet, cost), root)
	cmp.Events += cmp.HDS.Metrics.Events()

	// HALO baseline: affinity-grouped allocation contexts.
	haloCfg := baselines.PlanHALO(prof.Analysis, prof.Hot, prof.StreamsLCS)
	cmp.HALO = runOne(spec, opt, baselines.NewHALO(haloCfg, hotSet, cost), root)
	cmp.Events += cmp.HALO.Metrics.Events()

	// PreFix variants.
	for _, v := range opt.Variants {
		plan := vp.plans[v]
		if reg := opt.Metrics; reg != nil {
			kv := append([]string{"benchmark", name, "variant", v.String()}, opt.Labels...)
			reg.Gauge("prefix_plan_sites", kv...).Set(float64(plan.NumSites()))
			reg.Gauge("prefix_plan_counters", kv...).Set(float64(plan.NumCounters()))
			reg.Gauge("prefix_plan_region_bytes", kv...).Set(float64(plan.RegionSize))
			reg.Gauge("prefix_plan_placed_objects", kv...).Set(float64(plan.PlacedObjects))
			reg.Gauge("prefix_plan_hds_objects", kv...).Set(float64(plan.HDSObjects))
		}
		cmp.PreFix[v] = runOne(spec, opt, prefix.NewAllocator(plan, cost), root)
		cmp.Events += cmp.PreFix[v].Metrics.Events()
	}

	best := opt.Variants[0]
	for _, v := range opt.Variants[1:] {
		if cmp.PreFix[v].Metrics.Cycles < cmp.PreFix[best].Metrics.Cycles {
			best = v
		}
	}
	cmp.Best = best

	if opt.CaptureLongRun {
		lr, events, err := captureLongRun(spec, opt, cmp.Plans[best], root)
		if err != nil {
			return nil, err
		}
		cmp.LongRun = lr
		cmp.Events += events
	}
	return cmp, nil
}

// TraceBaselineAndBest runs the evaluation input under the baseline and
// under the best PreFix variant, recording both traces. It is
// AnalyzeBaselineAndBest with the traces kept instead of analyzed.
//
// Deprecated: use AnalyzeBaselineAndBest. It stays only for the
// benchmark replica, and goes with it (ROADMAP item 8).
func TraceBaselineAndBest(name string, opt Options) (base, best *trace.Trace, bestVariant prefix.Variant, err error) {
	var baseRec, bestRec trace.Recorder
	if bestVariant, err = figure9Runs(name, opt, &baseRec, &bestRec); err != nil {
		return nil, nil, 0, err
	}
	return baseRec.Trace(), bestRec.Trace(), bestVariant, nil
}

// AnalyzeBaselineAndBest runs the evaluation input under the baseline
// and under the best PreFix variant, analyzing both runs as they execute
// — the input of the Figure 9 heatmaps. The chosen variant is returned
// alongside the analyses.
func AnalyzeBaselineAndBest(name string, opt Options) (base, best *trace.Analysis, bestVariant prefix.Variant, err error) {
	baseAn, bestAn := trace.NewAnalyzer(), trace.NewAnalyzer()
	if bestVariant, err = figure9Runs(name, opt, baseAn, bestAn); err != nil {
		return nil, nil, 0, err
	}
	return baseAn.Finish(), bestAn.Finish(), bestVariant, nil
}

// figure9Runs profiles the benchmark, selects the best variant and runs
// the evaluation input into two recorders: baseRec under the baseline
// allocator, bestRec under the best variant's plan. "Best" means what it
// means in compareStrategies: every configured variant is planned and
// evaluated, and the one with the lowest cycle count is re-run. Published
// metrics carry a "phase" label so the selection and recorded runs never
// collide with a suite run's series for the same benchmark.
func figure9Runs(name string, opt Options, baseRec, bestRec trace.EventRecorder) (bestVariant prefix.Variant, err error) {
	spec, err := workloads.Get(name)
	if err != nil {
		return 0, err
	}
	if len(opt.Variants) == 0 {
		opt.Variants = DefaultOptions().Variants
	}
	root := opt.Tracer.Start("figure9 " + name)
	defer root.End()
	sc := opt.Perf.Begin("figure9").AttachSpan(root)
	defer sc.End()
	profSpan := root.Child("profile")
	prof, err := collectProfile(spec, opt, profSpan)
	profSpan.End()
	if err != nil {
		return 0, err
	}

	vp, err := placeVariants(name, opt, prof, root)
	if err != nil {
		return 0, err
	}
	selOpt := opt
	selOpt.Labels = append(append([]string(nil), opt.Labels...), "phase", "figure9-select")
	var bestPlan *prefix.Plan
	var bestCycles float64
	for i, v := range opt.Variants {
		plan := vp.plans[v]
		res := runOne(spec, selOpt, prefix.NewAllocator(plan, opt.Cache.Cost), root)
		sc.AddEvents(res.Metrics.Events())
		if i == 0 || res.Metrics.Cycles < bestCycles {
			bestCycles = res.Metrics.Cycles
			bestVariant, bestPlan = v, plan
		}
	}

	recOpt := opt
	recOpt.Labels = append(append([]string(nil), opt.Labels...), "phase", "figure9")
	baseRun := runOne(spec, recOpt, baselines.NewBaseline(opt.Cache.Cost), root, machine.WithRecorder(baseRec))
	optRun := runOne(spec, recOpt, prefix.NewAllocator(bestPlan, opt.Cache.Cost), root, machine.WithRecorder(bestRec))
	sc.AddEvents(baseRun.Metrics.Events() + optRun.Metrics.Events())
	return bestVariant, nil
}

// captureLongRun re-runs the best variant, analyzing the run as it
// executes, and reports what was captured (Table 5's long-run columns).
// The second return is the capture run's simulated event count for
// host-cost accounting.
func captureLongRun(spec workloads.Spec, opt Options, plan *prefix.Plan, root *obs.Span) (*LongRunCapture, uint64, error) {
	span := root.Child("long-run-capture")
	defer span.End()
	an := trace.NewAnalyzer()
	res := runOne(spec, opt, prefix.NewAllocator(plan, opt.Cache.Cost), span, machine.WithRecorder(an))
	a := an.Finish()
	region := plan.Region()

	cfg := opt.Plan
	cfg.Benchmark = spec.Program.Name()
	hot := prefix.SelectHot(a, cfg)
	refs := hds.CollapseRefs(a.Refs, hot.IDs)
	streams := hds.MineLCS(refs, cfg.HDS)
	inStream := hds.Objects(streams)

	lr := &LongRunCapture{}
	var regionAccesses uint64
	for _, o := range a.Objects {
		if !region.Contains(o.Addr) {
			continue
		}
		lr.CapturedObjects++
		regionAccesses += o.Accesses
		if hot.IDs[o.ID] {
			lr.HotObjects++
			if inStream[o.ID] {
				lr.HDSObjects++
			}
		}
	}
	if a.HeapAccesses > 0 {
		lr.HeapAccessPct = 100 * float64(regionAccesses) / float64(a.HeapAccesses)
	}
	return lr, res.Metrics.Events(), nil
}

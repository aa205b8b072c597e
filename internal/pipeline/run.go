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
	res := simulate(spec, opt, alloc, mopts...)
	publishRun(spec, opt, res, alloc)
	endEval(span, res)
	return res
}

// simulate runs the evaluation input on alloc and collects the result.
func simulate(spec workloads.Spec, opt Options, alloc machine.Allocator, mopts ...machine.Option) RunResult {
	if opt.Attribution {
		mopts = append(mopts, machine.WithAttribution())
	}
	m := machine.New(alloc, opt.Cache, mopts...)
	spec.Program.Run(m, evalConfig(spec, opt))
	res := RunResult{Strategy: alloc.Name(), Metrics: m.Finish(), Attrib: m.Attrib()}
	switch a := alloc.(type) {
	case *baselines.Baseline:
		res.PeakBytes = a.PeakBytes()
	case *baselines.HDSAlloc:
		res.PeakBytes = a.PeakBytes()
		p := a.Pollution()
		res.Pollution = &p
	case *baselines.HALO:
		res.PeakBytes = a.PeakBytes()
		p := a.Pollution()
		res.Pollution = &p
	case *prefix.Allocator:
		res.PeakBytes = a.PeakBytes()
		c := a.Capture()
		res.Capture = &c
	}
	return res
}

// publishRun publishes res's series under its own strategy's "run" label
// when opt carries a registry. alloc, the allocator the run executed on,
// is the source of the allocator-state series.
func publishRun(spec workloads.Spec, opt Options, res RunResult, alloc machine.Allocator) {
	reg := opt.Metrics
	if reg == nil {
		return
	}
	kv := append([]string{"benchmark", spec.Program.Name(), "run", res.Strategy}, opt.Labels...)
	if res.Pollution != nil {
		res.Pollution.Publish(reg, kv...)
	}
	if a, ok := alloc.(*prefix.Allocator); ok {
		a.Publish(reg, kv...)
	}
	res.Metrics.Publish(reg, kv...)
	reg.Gauge("prefix_run_peak_bytes", kv...).Set(float64(res.PeakBytes))
	res.Attrib.Publish(reg, kv...)
}

// endEval records the run's totals on its eval span and closes it.
func endEval(span *obs.Span, res RunResult) {
	span.Set("cycles", res.Metrics.Cycles)
	span.Set("instructions", res.Metrics.Instr)
	span.End()
}

// evalVariants runs the evaluation input under every configured
// variant's plan, one "eval <variant>" span each under parent. Only the
// representative of each behaviour group (vp.evalAs) is simulated; every
// other variant gets a copy of its representative's result, published
// under its own labels from the representative's allocator, on an eval
// span marked reused_from. The second return is the simulated event
// count, which reused results do not add to.
func evalVariants(spec workloads.Spec, opt Options, vp variantPlans, parent *obs.Span) (map[prefix.Variant]RunResult, uint64) {
	runs := make(map[prefix.Variant]RunResult, len(opt.Variants))
	allocs := make(map[prefix.Variant]*prefix.Allocator, len(opt.Variants))
	var events uint64
	for _, v := range opt.Variants {
		if rep := vp.evalAs[v]; rep != v {
			runs[v] = reuseRun(spec, opt, v, runs[rep], allocs[rep], parent)
			continue
		}
		a := prefix.NewAllocator(vp.plans[v], opt.Cache.Cost)
		runs[v] = runOne(spec, opt, a, parent)
		allocs[v] = a
		events += runs[v].Metrics.Events()
	}
	return runs, events
}

// reuseRun gives variant v the result src of the same-behaviour plan
// that ran on alloc, as if v had been simulated: its own strategy name,
// its own Capture copy, its own published series and an "eval <v>" span
// carrying reused_from=<src.Strategy>. The attribution snapshot is
// read-only and stays shared.
func reuseRun(spec workloads.Spec, opt Options, v prefix.Variant, src RunResult, alloc *prefix.Allocator, parent *obs.Span) RunResult {
	span := parent.Child("eval " + v.String())
	span.Set("reused_from", src.Strategy)
	res := src
	res.Strategy = v.String()
	c := *src.Capture
	res.Capture = &c
	publishRun(spec, opt, res, alloc)
	endEval(span, res)
	return res
}

// pickBest returns the configured variant with the lowest cycle
// count; the earliest wins a tie.
func pickBest(variants []prefix.Variant, runs map[prefix.Variant]RunResult) prefix.Variant {
	best := variants[0]
	for _, v := range variants[1:] {
		if runs[v].Metrics.Cycles < runs[best].Metrics.Cycles {
			best = v
		}
	}
	return best
}

// Comparison is the evaluation of one benchmark: every demanded
// strategy's run, the plans, and the profile it was all derived from.
type Comparison struct {
	Benchmark string
	Profile   *Profile
	// Ran is the demand the comparison was simulated at. A strategy
	// outside it did not run: its RunResult is the zero value and, for
	// PreFix, PreFix, Plans and Summaries are nil and Best is unset.
	// Readers check with Need. Its zero value, as in a hand-built
	// Comparison, means every strategy ran.
	Ran       Demand
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
	// A variant that reused another's eval adds nothing: it simulated
	// nothing.
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

// RunBenchmark evaluates one benchmark end to end, simulating the
// strategies opt.Demand names.
func RunBenchmark(name string, opt Options) (*Comparison, error) {
	m := NewMemo(opt)
	cmp, _, err := m.benchmark(name, m.opt)
	return cmp, err
}

// variantPlans is one profile's plan and summary per configured variant,
// and the variant whose evaluation each one reuses.
type variantPlans struct {
	plans     map[prefix.Variant]*prefix.Plan
	summaries map[prefix.Variant]*prefix.Summary
	// evalAs maps every variant to the earliest configured variant whose
	// plan has the same behaviour (prefix.Plan.SameBehaviour) — itself
	// when there is none. The eval is deterministic, so only these
	// representatives are simulated.
	evalAs map[prefix.Variant]prefix.Variant
}

// placeVariants places every configured variant's plan from the
// profile's preparation, one "plan <variant>" span each under parent,
// and groups the plans by behaviour (evalAs). With Options.Attribution
// every summary carries its variant's ledger. Plans are read-only once
// built, so one set and one grouping serve every evaluation input of the
// profile.
func placeVariants(name string, opt Options, prof *Profile, parent *obs.Span) (variantPlans, error) {
	vp := variantPlans{
		plans:     make(map[prefix.Variant]*prefix.Plan, len(opt.Variants)),
		summaries: make(map[prefix.Variant]*prefix.Summary, len(opt.Variants)),
		evalAs:    make(map[prefix.Variant]prefix.Variant, len(opt.Variants)),
	}
	var reps []prefix.Variant
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
		vp.evalAs[v] = v
		for _, r := range reps {
			if vp.plans[r].SameBehaviour(plan) {
				vp.evalAs[v] = r
				break
			}
		}
		if vp.evalAs[v] == v {
			reps = append(reps, v)
		}
	}
	return vp, nil
}

// compareStrategies runs the evaluation input under every strategy
// opt.Demand names for an already-collected profile and its placed plans
// (which must exist when PreFix is demanded). The root span (nil when
// tracing is off) receives the per-run child spans.
func compareStrategies(spec workloads.Spec, opt Options, prof *Profile, vp variantPlans, root *obs.Span) (*Comparison, error) {
	name := spec.Program.Name()
	d := opt.Demand
	if opt.CaptureLongRun && !d.Has(StrategyPreFix) {
		return nil, fmt.Errorf("pipeline: %s: the long-run capture re-runs the best PreFix plan, but the demand is %s", name, d)
	}
	cmp := &Comparison{Benchmark: name, Profile: prof, Ran: d}
	cost := opt.Cache.Cost

	if d.Has(StrategyBaseline) {
		cmp.Baseline = runOne(spec, opt, baselines.NewBaseline(cost), root)
		cmp.Events += cmp.Baseline.Metrics.Events()
	}

	var hotSet baselines.HotSet
	if d.Has(StrategyHDS) || d.Has(StrategyHALO) {
		hotSet = baselines.HotSetOf(prof.Hot)
	}
	if d.Has(StrategyHDS) {
		// Sites from Sequitur streams, per the original work.
		hdsSites := baselines.HDSSites(prof.Analysis, prof.StreamsSequitur)
		cmp.HDS = runOne(spec, opt, baselines.NewHDS(hdsSites, hotSet, cost), root)
		cmp.Events += cmp.HDS.Metrics.Events()
	}

	if d.Has(StrategyHALO) {
		// Affinity-grouped allocation contexts.
		haloCfg := baselines.PlanHALO(prof.Analysis, prof.Hot, prof.StreamsLCS)
		cmp.HALO = runOne(spec, opt, baselines.NewHALO(haloCfg, hotSet, cost), root)
		cmp.Events += cmp.HALO.Metrics.Events()
	}

	if !d.Has(StrategyPreFix) {
		return cmp, nil
	}
	// PreFix variants: one simulation per distinct plan behaviour.
	cmp.Plans, cmp.Summaries = vp.plans, vp.summaries
	if reg := opt.Metrics; reg != nil {
		for _, v := range opt.Variants {
			plan := vp.plans[v]
			kv := append([]string{"benchmark", name, "variant", v.String()}, opt.Labels...)
			reg.Gauge("prefix_plan_sites", kv...).Set(float64(plan.NumSites()))
			reg.Gauge("prefix_plan_counters", kv...).Set(float64(plan.NumCounters()))
			reg.Gauge("prefix_plan_region_bytes", kv...).Set(float64(plan.RegionSize))
			reg.Gauge("prefix_plan_placed_objects", kv...).Set(float64(plan.PlacedObjects))
			reg.Gauge("prefix_plan_hds_objects", kv...).Set(float64(plan.HDSObjects))
		}
	}
	prefixRuns, events := evalVariants(spec, opt, vp, root)
	cmp.PreFix = prefixRuns
	cmp.Events += events
	cmp.Best = pickBest(opt.Variants, cmp.PreFix)

	if opt.CaptureLongRun {
		lr, events, err := captureLongRun(spec, opt, cmp.Plans[cmp.Best], cmp.PreFix[cmp.Best].Metrics.MemInstr, root)
		if err != nil {
			return nil, err
		}
		cmp.LongRun = lr
		cmp.Events += events
	}
	return cmp, nil
}

// TraceBaselineAndBest profiles the benchmark, selects its best PreFix
// variant, and runs the evaluation input under the baseline and under
// that variant, recording both traces.
//
// Deprecated: use AnalyzeBaselineAndBest on the benchmark's Comparison.
// It stays only for the benchmark replica, and goes with it (ROADMAP
// item 8).
func TraceBaselineAndBest(name string, opt Options) (base, best *trace.Trace, bestVariant prefix.Variant, err error) {
	var baseRec, bestRec trace.Recorder
	if bestVariant, err = figure9Runs(name, opt, &baseRec, &bestRec); err != nil {
		return nil, nil, 0, err
	}
	return baseRec.Trace(), bestRec.Trace(), bestVariant, nil
}

// AnalyzeBaselineAndBest runs cmp's evaluation input under the baseline
// and under cmp's best PreFix plan, analyzing each run as it executes —
// the input of the Figure 9 heatmaps. opt must be the options cmp was
// evaluated with. The two runs are jobs on at most `jobs` workers; each
// reserves its reference string from the access count cmp measured for
// the same run. use receives each finished analysis inside its job
// (best tells the two apart), so it must be safe for concurrent use when
// jobs > 1; the analysis is not referenced after use returns. cmp must
// have simulated the baseline and PreFix.
func AnalyzeBaselineAndBest(cmp *Comparison, opt Options, jobs int, use func(best bool, a *trace.Analysis)) error {
	if err := cmp.Need(StrategyBaseline | StrategyPreFix); err != nil {
		return err
	}
	spec, err := workloads.Get(cmp.Benchmark)
	if err != nil {
		return err
	}
	root := opt.Tracer.Start("figure9 " + cmp.Benchmark)
	defer root.End()
	sc := opt.Perf.Begin("figure9").AttachSpan(root)
	defer sc.End()
	opt.Labels = append(append([]string(nil), opt.Labels...), "phase", "figure9")
	runs := [2]struct {
		alloc    machine.Allocator
		accesses uint64
		events   uint64
	}{
		{alloc: baselines.NewBaseline(opt.Cache.Cost), accesses: cmp.Baseline.Metrics.MemInstr},
		{alloc: prefix.NewAllocator(cmp.Plans[cmp.Best], opt.Cache.Cost), accesses: cmp.PreFix[cmp.Best].Metrics.MemInstr},
	}
	errs := runJobs(len(runs), jobs, func(i int) error {
		an := trace.NewAnalyzer()
		an.Reserve(runs[i].accesses)
		res := runOne(spec, opt, runs[i].alloc, root, machine.WithRecorder(an))
		runs[i].events = res.Metrics.Events()
		use(i == 1, an.Finish())
		return nil
	})
	sc.AddEvents(runs[0].events + runs[1].events)
	return joinErrors(errs, func(i int) string { return runs[i].alloc.Name() })
}

// figure9Runs profiles the benchmark, selects the best variant and runs
// the evaluation input into two recorders: baseRec under the baseline
// allocator, bestRec under the best variant's plan. "Best" means what it
// means in compareStrategies: every configured variant is planned and
// evaluated (once per distinct plan behaviour), and the one with the
// lowest cycle count is re-run. Published
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
	runs, events := evalVariants(spec, selOpt, vp, root)
	sc.AddEvents(events)
	bestVariant = pickBest(opt.Variants, runs)
	bestPlan := vp.plans[bestVariant]

	recOpt := opt
	recOpt.Labels = append(append([]string(nil), opt.Labels...), "phase", "figure9")
	baseRun := runOne(spec, recOpt, baselines.NewBaseline(opt.Cache.Cost), root, machine.WithRecorder(baseRec))
	optRun := runOne(spec, recOpt, prefix.NewAllocator(bestPlan, opt.Cache.Cost), root, machine.WithRecorder(bestRec))
	sc.AddEvents(baseRun.Metrics.Events() + optRun.Metrics.Events())
	return bestVariant, nil
}

// captureLongRun re-runs the best variant, analyzing the run as it
// executes, and reports what was captured (Table 5's long-run columns).
// accesses is the access count the plan's evaluation run measured, the
// re-run's reference-string reservation. The second return is the
// capture run's simulated event count for host-cost accounting. The
// re-run's series carry phase=capture, so they never add to the
// variant's own eval series.
func captureLongRun(spec workloads.Spec, opt Options, plan *prefix.Plan, accesses uint64, root *obs.Span) (*LongRunCapture, uint64, error) {
	span := root.Child("long-run-capture")
	defer span.End()
	opt.Labels = append(append([]string(nil), opt.Labels...), "phase", "capture")
	an := trace.NewAnalyzer()
	an.Reserve(accesses)
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

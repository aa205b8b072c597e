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
			vp.plans[v].Publish(reg, append([]string{"benchmark", name, "variant", v.String()}, opt.Labels...)...)
		}
	}
	prefixRuns, events := evalVariants(spec, opt, vp, root)
	cmp.PreFix = prefixRuns
	cmp.Events += events
	cmp.Best = pickBest(opt.Variants, cmp.PreFix)

	if opt.CaptureLongRun {
		lr, events := captureLongRun(spec, opt, cmp.Plans[cmp.Best], cmp.BestResult().Metrics.MemInstr, root)
		cmp.LongRun = lr
		cmp.Events += events
	}
	return cmp, nil
}

// TraceBaselineAndBest evaluates the benchmark's PreFix variants
// (RunBenchmark at demand PreFix, without the long-run capture) and runs
// the evaluation input again under the baseline and under the best
// variant's plan, recording both traces.
//
// Deprecated: use AnalyzeBaselineAndBest on the benchmark's Comparison.
// It stays only for the benchmark replica, and goes with it (ROADMAP
// item 8).
func TraceBaselineAndBest(name string, opt Options) (base, best *trace.Trace, bestVariant prefix.Variant, err error) {
	opt.Demand = Demanding(StrategyPreFix)
	opt.CaptureLongRun = false
	cmp, err := RunBenchmark(name, opt)
	if err != nil {
		return nil, nil, 0, err
	}
	var recs [2]trace.Recorder
	if err := cmp.rerunBaselineAndBest(opt, 1, func(i int, r rerun) RunResult { return r.record(&recs[i]) }); err != nil {
		return nil, nil, 0, err
	}
	return recs[0].Trace(), recs[1].Trace(), cmp.Best, nil
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
	return cmp.rerunBaselineAndBest(opt, jobs, func(i int, r rerun) RunResult {
		res, a := r.analyze()
		use(i == 1, a)
		return res
	})
}

// rerunBaselineAndBest runs the comparison's evaluation input again
// under the baseline and under its best PreFix plan — Figure 9's pair —
// as two jobs on at most `jobs` workers, under a "figure9 <bench>" root
// span and the figure9 host scope, with the runs' series labeled
// phase=figure9. run executes job i (0 the baseline, 1 the best plan)
// through the rerun's record or analyze and returns its result. opt
// must be the options the comparison was evaluated with, and the
// comparison must have simulated PreFix.
func (c *Comparison) rerunBaselineAndBest(opt Options, jobs int, run func(i int, r rerun) RunResult) error {
	spec, err := workloads.Get(c.Benchmark)
	if err != nil {
		return err
	}
	root := opt.Tracer.Start("figure9 " + c.Benchmark)
	sc := opt.Perf.Begin("figure9", root)
	defer sc.End()
	opt.Labels = append(append([]string(nil), opt.Labels...), "phase", "figure9")
	reruns := [2]rerun{
		{spec: spec, opt: opt, alloc: baselines.NewBaseline(opt.Cache.Cost), accesses: c.Baseline.Metrics.MemInstr, parent: root},
		{spec: spec, opt: opt, alloc: prefix.NewAllocator(c.Plans[c.Best], opt.Cache.Cost), accesses: c.BestResult().Metrics.MemInstr, parent: root},
	}
	var events [2]uint64
	errs := opt.runJobs(len(reruns), jobs, nil, func(i int) error {
		events[i] = run(i, reruns[i]).Metrics.Events()
		return nil
	})
	sc.AddEvents(events[0] + events[1])
	return joinErrors(errs, func(i int) string { return reruns[i].alloc.Name() })
}

// rerun is one run of a finished comparison to repeat with a recorder
// attached: the strategy's allocator, the options and parent span it
// runs under, and the access count the comparison measured for it.
type rerun struct {
	spec     workloads.Spec
	opt      Options
	alloc    machine.Allocator
	accesses uint64
	parent   *obs.Span
}

// record runs the evaluation input again with rec attached, so the run
// is recorded as it executes. It is the one place a recorder is attached
// to an evaluation run.
func (r rerun) record(rec trace.EventRecorder) RunResult {
	return runOne(r.spec, r.opt, r.alloc, r.parent, machine.WithRecorder(rec))
}

// analyze records the run into an analyzer and returns the run's
// analysis with its result. The analyzer reserves its reference string
// from the measured access count: heap references are at most the
// access events, so Refs is allocated once.
func (r rerun) analyze() (RunResult, *trace.Analysis) {
	an := trace.NewAnalyzer()
	an.Reserve(r.accesses)
	res := r.record(an)
	return res, an.Finish()
}

// captureLongRun re-runs the best variant, analyzing the run as it
// executes, and reports what was captured (Table 5's long-run columns).
// accesses is the access count the plan's evaluation run measured, the
// re-run's reference-string reservation. The second return is the
// capture run's simulated event count for host-cost accounting. The
// re-run's series carry phase=capture, so they never add to the
// variant's own eval series.
func captureLongRun(spec workloads.Spec, opt Options, plan *prefix.Plan, accesses uint64, root *obs.Span) (*LongRunCapture, uint64) {
	span := root.Child("long-run-capture")
	defer span.End()
	opt.Labels = append(append([]string(nil), opt.Labels...), "phase", "capture")
	res, a := rerun{spec: spec, opt: opt, alloc: prefix.NewAllocator(plan, opt.Cache.Cost), accesses: accesses, parent: span}.analyze()
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
	return lr, res.Metrics.Events()
}

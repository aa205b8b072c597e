package pipeline

import (
	"fmt"

	"prefix/internal/baselines"
	"prefix/internal/machine"
	"prefix/internal/obs"
	"prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// MTResult is one point of the Figure 10 evaluation: the benchmark run
// with k threads under the baseline and under the best PreFix plan, and
// the relative improvement of modeled parallel time.
type MTResult struct {
	Threads        int
	BaselineCycles float64
	PreFixCycles   float64
	ImprovementPct float64 // positive = PreFix faster, the Figure 10 y-axis
	CallsAvoided   uint64
}

// RunMultithreaded reproduces the §3.3 multithreading experiment for one
// benchmark: the trace is collected once (single-threaded profiling run,
// default configuration), the plan is built once, and the optimized
// program is then run with each thread count. Only benchmarks whose
// program implements workloads.MultiThreaded are eligible.
func RunMultithreaded(name string, threadCounts []int, opt Options) ([]MTResult, error) {
	return RunMultithreadedJobs(name, threadCounts, opt, 1)
}

// RunMultithreadedJobs is RunMultithreaded with the thread-count sweep
// run on a bounded worker pool of `jobs` workers. Every thread count
// evaluates against the same read-only plan with its own machine group,
// and results are indexed by position in threadCounts, so the Figure 10
// series is identical at any job count.
func RunMultithreadedJobs(name string, threadCounts []int, opt Options, jobs int) ([]MTResult, error) {
	spec, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	mt, ok := spec.Program.(workloads.MultiThreaded)
	if !ok {
		return nil, fmt.Errorf("pipeline: %s is not multithreaded", name)
	}
	root := opt.Tracer.Start("multithreaded " + name)
	defer root.End()
	profSpan := root.Child("profile")
	profScope := opt.Perf.Begin("profile", profSpan)
	an := trace.NewAnalyzer()
	profileGroup(spec, mt, opt, an)
	events := an.Stats().Events
	profScope.AddEvents(events)
	profSpan.Set("events", events)
	analysis := an.Finish()
	profScope.End()
	if analysis.HeapAccesses == 0 {
		return nil, fmt.Errorf("pipeline: %s multithreaded profile has no heap accesses", name)
	}

	// One variant from a profile nothing else shares: BuildPlan's single
	// mine → Prepare → Place pass is all the planning there is.
	cfg := opt.Plan
	cfg.Benchmark = name
	cfg.Variant = prefix.VariantHot // mysql/mcf best configurations use Hot
	planSpan := root.Child("plan " + cfg.Variant.String())
	cfg.Trace = planSpan
	plan, _, err := prefix.BuildPlan(analysis, cfg)
	planSpan.End()
	if err != nil {
		return nil, err
	}

	base := evalConfig(spec, opt)
	out := make([]MTResult, len(threadCounts))
	errs := opt.runJobs(len(threadCounts), jobs, func(i int) obs.JobEvent {
		return obs.JobEvent{Phase: "multithreaded", Benchmark: name, Job: i, Jobs: len(threadCounts), Seed: -1, Threads: threadCounts[i]}
	}, func(i int) error {
		k := threadCounts[i]
		wcfg := base
		wcfg.Threads = k
		span := root.Child(fmt.Sprintf("eval threads=%d", k))
		span.Set("threads", k)
		sc := opt.Perf.Begin("multithreaded", span)
		defer sc.End()

		baseGroup := machine.NewGroup(baselines.NewBaseline(opt.Cache.Cost), opt.Cache, k, nil)
		runGroup(mt, baseGroup, wcfg, k)
		_, baseCycles, baseTotal := baseGroup.Finish()

		alloc := prefix.NewAllocator(plan, opt.Cache.Cost)
		optGroup := machine.NewGroup(alloc, opt.Cache, k, nil)
		runGroup(mt, optGroup, wcfg, k)
		_, optCycles, optTotal := optGroup.Finish()
		sc.AddEvents(baseTotal.Events() + optTotal.Events())

		if reg := opt.Metrics; reg != nil {
			threads := fmt.Sprint(k)
			kv := func(run string) []string {
				return append([]string{"benchmark", name, "run", run, "threads", threads}, opt.Labels...)
			}
			baseTotal.Publish(reg, kv("baseline")...)
			optTotal.Publish(reg, kv("prefix")...)
			alloc.Publish(reg, kv("prefix")...)
		}

		r := MTResult{
			Threads:        k,
			BaselineCycles: baseCycles,
			PreFixCycles:   optCycles,
			CallsAvoided:   alloc.Capture().CallsAvoided(),
		}
		if baseCycles > 0 {
			r.ImprovementPct = 100 * (baseCycles - optCycles) / baseCycles
		}
		out[i] = r
		return nil
	})
	if err := joinErrors(errs, func(i int) string {
		return fmt.Sprintf("%s threads=%d", name, threadCounts[i])
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// profileGroup runs the profiling input on a machine group recording
// into rec. "The traces were collected only once from these benchmarks
// with the number of threads set to the default value" (§3.3): profile
// with the default thread count, then optimize once and evaluate at
// every thread count.
func profileGroup(spec workloads.Spec, mt workloads.MultiThreaded, opt Options, rec trace.EventRecorder) {
	const defaultThreads = 4
	g := machine.NewGroup(baselines.NewBaseline(opt.Cache.Cost), opt.Cache, defaultThreads, rec)
	cfg := spec.Profile
	cfg.Threads = defaultThreads
	runGroup(mt, g, cfg, defaultThreads)
	g.Finish()
}

func runGroup(mt workloads.MultiThreaded, g *machine.Group, cfg workloads.Config, k int) {
	envs := make([]machine.Env, k)
	for i := 0; i < k; i++ {
		envs[i] = g.Env(i)
	}
	mt.RunMT(envs, cfg)
}

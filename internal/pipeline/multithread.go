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
// benchmark: the trace is collected once (a profiling run at the default
// thread count), the plan is built once, and the optimized program is
// then run with each thread count. Only benchmarks whose program
// implements workloads.MultiThreaded are eligible.
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
	for _, k := range threadCounts {
		if k < 1 {
			return nil, fmt.Errorf("pipeline: %s: thread count %d is below 1", name, k)
		}
	}
	root := opt.Tracer.Start("multithreaded " + name)
	defer root.End()

	// The group profile is the profile stage of any benchmark, at demand
	// PreFix; phase=figure10 keeps its series apart from the benchmark's
	// own profile.
	profOpt := opt
	profOpt.Demand = Demanding(StrategyPreFix)
	profOpt.Labels = append(append([]string(nil), opt.Labels...), "phase", "figure10")
	prof, err := collectProfile(name, profileGroup(spec, mt, opt), profOpt, root.Child("profile"))
	if err != nil {
		return nil, err
	}
	v := prefix.VariantHot // mysql/mcf best configurations use Hot
	planSpan := root.Child("plan " + v.String())
	plan, _, err := prof.Prepared.Place(v, planSpan, nil)
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

// profileGroup runs the profiling input on a machine group of the
// default thread count. "The traces were collected only once from these
// benchmarks with the number of threads set to the default value"
// (§3.3): profile once, then optimize once and evaluate at every thread
// count.
func profileGroup(spec workloads.Spec, mt workloads.MultiThreaded, opt Options) profileRun {
	return func(rec trace.EventRecorder) machine.Metrics {
		const defaultThreads = 4
		g := machine.NewGroup(baselines.NewBaseline(opt.Cache.Cost), opt.Cache, defaultThreads, rec)
		cfg := spec.Profile
		cfg.Threads = defaultThreads
		runGroup(mt, g, cfg, defaultThreads)
		_, _, total := g.Finish()
		return total
	}
}

func runGroup(mt workloads.MultiThreaded, g *machine.Group, cfg workloads.Config, k int) {
	envs := make([]machine.Env, k)
	for i := 0; i < k; i++ {
		envs[i] = g.Env(i)
	}
	mt.RunMT(envs, cfg)
}

// Command prefix-opt runs one benchmark's evaluation input under a chosen
// allocation strategy (baseline, HDS, HALO, or a PreFix plan) and prints
// the run metrics — the "optimized executable" stage of Figure 8, plus
// the measurement the paper's Table 3 row needs.
//
// Usage:
//
//	prefix-opt -bench mcf                       # compare all strategies
//	prefix-opt -bench mcf,health -jobs 2        # several benchmarks, in parallel
//	prefix-opt -bench mcf -plan mcf.plan.json   # run a saved plan
//	prefix-opt -bench mcf -attrib               # + per-site attribution table
//	prefix-opt -bench mcf -metrics-out run.prom -trace-out phases.json -v
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/obsflags"
	"prefix/internal/pipeline"
	core "prefix/internal/prefix"
	"prefix/internal/report"
	"prefix/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "prefix-opt:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		bench    = flag.String("bench", "", "benchmark name, or a comma-separated list (required)")
		planPath = flag.String("plan", "", "PreFix plan JSON (from prefix-analyze); when set, only that plan is run against the baseline (single -bench only)")
		scale    = flag.String("scale", "long", "evaluation scale: bench or long")
		jobs     = flag.Int("jobs", pipeline.DefaultJobs(), "run up to N benchmark evaluations concurrently (1 = serial)")
		paperHW  = flag.Bool("paper-cache", false, "use the paper's 40MB-LLC cache geometry instead of the scaled one")
		attrib   = flag.Bool("attrib", false, "attribute misses to allocation sites and append the per-site attribution table (strategy rows are identical)")
		obsf     = obsflags.Register(flag.CommandLine)
	)
	flag.Parse()
	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *scale != "long" && *scale != "bench" {
		return fmt.Errorf("unknown -scale %q (valid: long, bench)", *scale)
	}
	if *jobs < 1 {
		return fmt.Errorf("-jobs must be at least 1 (got %d)", *jobs)
	}
	names, err := workloads.ResolveList(*bench)
	if err != nil {
		return err
	}
	if *planPath != "" && len(names) != 1 {
		return fmt.Errorf("-plan runs a single benchmark; got %d in -bench %q", len(names), *bench)
	}

	sess, err := obsf.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()

	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = *scale == "bench"
	if *paperHW {
		opt.Cache = cachesim.PaperConfig()
	}
	opt.Progress = sess.Progress()
	opt.Metrics = sess.Metrics
	opt.Tracer = sess.Tracer
	opt.Perf = sess.Perf
	opt.Attribution = *attrib
	if *attrib && *planPath != "" {
		return fmt.Errorf("-attrib applies to the strategy comparison, not -plan runs")
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tcycles\tvs baseline\tL1 miss\tLLC miss\tstalls\tpeak")

	var cmps []*pipeline.Comparison
	if *planPath != "" {
		err = runSavedPlan(tw, names[0], *planPath, opt)
	} else {
		cmps, err = runComparison(tw, names, opt, *jobs)
	}
	if err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if *attrib {
		fmt.Println()
		return report.AttributionTable(os.Stdout, cmps, pipeline.ExplainTopSites)
	}
	return nil
}

func runComparison(tw *tabwriter.Writer, names []string, opt pipeline.Options, jobs int) ([]*pipeline.Comparison, error) {
	cmps, err := pipeline.RunSuite(names, opt, jobs)
	if err != nil {
		return nil, err
	}
	for i, cmp := range cmps {
		if len(cmps) > 1 {
			if i > 0 {
				fmt.Fprintln(tw)
			}
			fmt.Fprintf(tw, "%s\n", cmp.Benchmark)
		}
		row := func(name string, r pipeline.RunResult) {
			m := r.Metrics
			fmt.Fprintf(tw, "%s\t%.4g\t%+.2f%%\t%.3f%%\t%.4f%%\t%.1f%%\t%d\n",
				name, m.Cycles, r.TimeDeltaPct(cmp.Baseline),
				100*m.Cache.L1MissRate(), 100*m.Cache.LLCMissRate(),
				m.BackendStallPct(), r.PeakBytes)
		}
		row("baseline", cmp.Baseline)
		row("hds", cmp.HDS)
		row("halo", cmp.HALO)
		for _, v := range []core.Variant{core.VariantHot, core.VariantHDS, core.VariantHDSHot} {
			row(v.String(), cmp.PreFix[v])
		}
		fmt.Fprintf(tw, "best\t%s\t%+.2f%%\t\t\t\t\n", cmp.Best, cmp.BestResult().TimeDeltaPct(cmp.Baseline))
	}
	return cmps, nil
}

func runSavedPlan(tw *tabwriter.Writer, bench, planPath string, opt pipeline.Options) error {
	spec, err := workloads.Get(bench)
	if err != nil {
		return err
	}
	f, err := os.Open(planPath)
	if err != nil {
		return err
	}
	plan, err := core.ReadJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	cfg := spec.Long
	if opt.UseBenchScale {
		cfg = spec.Bench
	}

	root := opt.Tracer.Start("saved-plan " + bench)
	defer root.End()
	run := func(alloc machine.Allocator) machine.Metrics {
		span := root.Child("eval " + alloc.Name())
		m := machine.New(alloc, opt.Cache)
		spec.Program.Run(m, cfg)
		metrics := m.Finish()
		span.Set("cycles", metrics.Cycles)
		span.End()
		metrics.Publish(opt.Metrics, "benchmark", bench, "run", alloc.Name())
		return metrics
	}
	base := run(baselines.NewBaseline(opt.Cache.Cost))
	alloc := core.NewAllocator(plan, opt.Cache.Cost)
	pm := run(alloc)
	alloc.Publish(opt.Metrics, "benchmark", bench, "run", alloc.Name())

	delta := 100 * (pm.Cycles - base.Cycles) / base.Cycles
	fmt.Fprintf(tw, "baseline\t%.4g\t\t%.3f%%\t%.4f%%\t%.1f%%\t\n",
		base.Cycles, 100*base.Cache.L1MissRate(), 100*base.Cache.LLCMissRate(), base.BackendStallPct())
	fmt.Fprintf(tw, "%s\t%.4g\t%+.2f%%\t%.3f%%\t%.4f%%\t%.1f%%\t\n",
		plan.Variant, pm.Cycles, delta,
		100*pm.Cache.L1MissRate(), 100*pm.Cache.LLCMissRate(), pm.BackendStallPct())
	cap := alloc.Capture()
	fmt.Fprintf(tw, "capture\tavoided=%d\tfallback=%d\tstatic=%d\trecycled=%d\t\t\n",
		cap.MallocsAvoided, cap.FallbackMallocs, cap.StaticCaptured, cap.RecycledCaptured)
	return nil
}

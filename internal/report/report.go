// Package report renders the evaluation results in the shape of the
// paper's tables and figures. Every emitter takes the pipeline's
// measurement structs and writes a plain-text table (or CSV, for the
// heatmap) to an io.Writer, so the same code backs the prefix-bench
// command and the Go benchmark harness.
package report

import (
	"fmt"
	"io"
	"text/tabwriter"

	"prefix/internal/pipeline"
	"prefix/internal/prefix"
)

// Pct formats a signed percentage the way the paper's Table 3 does.
func Pct(v float64) string {
	return fmt.Sprintf("%+.2f%%", v)
}

// Bytes renders a byte count in human units.
func Bytes(b uint64) string {
	switch {
	case b >= 10<<20:
		return fmt.Sprintf("%.0fMB", float64(b)/(1<<20))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// need returns the error of the first comparison that did not simulate
// every strategy in s. Each emitter checks what it reads before writing
// anything, so a strategy that did not run fails the emitter instead of
// printing as zero.
func need(cmps []*pipeline.Comparison, s pipeline.Strategies) error {
	for _, c := range cmps {
		if err := c.Need(s); err != nil {
			return err
		}
	}
	return nil
}

// Figure1 prints the hot-object coverage bars: % of heap accesses from
// hot heap objects, with the number of hot dynamic objects per benchmark.
// It reads only the profiles, so it needs no strategy.
func Figure1(w io.Writer, cmps []*pipeline.Comparison) error {
	fmt.Fprintln(w, "Figure 1: Percentage of Memory Accesses from Heap Objects vs. Hot Heap Objects (profiling runs)")
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\theap acc %\thot obj acc %\t# hot objects")
	for _, c := range cmps {
		a := c.Profile.Analysis
		heapPct := 0.0
		if a.TotalAccesses > 0 {
			heapPct = 100 * float64(a.HeapAccesses) / float64(a.TotalAccesses)
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%d\n",
			c.Benchmark, heapPct, c.Profile.Hot.CoveragePct()*heapPct/100, len(c.Profile.Hot.Objects))
	}
	return tw.Flush()
}

// Table2 prints the context summary: pattern types, #sites, #counters.
func Table2(w io.Writer, cmps []*pipeline.Comparison) error {
	if err := need(cmps, pipeline.StrategyPreFix); err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 2: Context Used")
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\ttype\t#sites\t#counters")
	for _, c := range cmps {
		p := c.Plans[c.Best]
		fmt.Fprintf(tw, "%s\t[%s]\t%d\t%d\n", c.Benchmark, p.KindsString(), p.NumSites(), p.NumCounters())
	}
	return tw.Flush()
}

// Table3 prints the execution-time comparison.
func Table3(w io.Writer, cmps []*pipeline.Comparison) error {
	if err := need(cmps, pipeline.AllStrategies); err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 3: Relative Changes in Execution Time (negative = reduction)")
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\tbaseline cycles\tmem refs\tHDS\tHALO\tPreFix:Hot\tPreFix:HDS\tPreFix:HDS+Hot\tBest")
	var sums [6]float64
	for _, c := range cmps {
		b := c.Baseline
		hot := c.PreFix[prefix.VariantHot].TimeDeltaPct(b)
		hds := c.PreFix[prefix.VariantHDS].TimeDeltaPct(b)
		both := c.PreFix[prefix.VariantHDSHot].TimeDeltaPct(b)
		best := c.BestResult().TimeDeltaPct(b)
		dHDS := c.HDS.TimeDeltaPct(b)
		dHALO := c.HALO.TimeDeltaPct(b)
		fmt.Fprintf(tw, "%s\t%.3g\t%d\t%s\t%s\t%s\t%s\t%s\t%s (%s)\n",
			c.Benchmark, b.Metrics.Cycles, b.Metrics.Cache.Accesses,
			Pct(dHDS), Pct(dHALO), Pct(hot), Pct(hds), Pct(both), Pct(best), c.Best)
		for i, v := range []float64{dHDS, dHALO, hot, hds, both, best} {
			sums[i] += v
		}
	}
	n := float64(len(cmps))
	fmt.Fprintf(tw, "AVERAGE\t\t\t%s\t%s\t%s\t%s\t%s\t%s\n",
		Pct(sums[0]/n), Pct(sums[1]/n), Pct(sums[2]/n), Pct(sums[3]/n), Pct(sums[4]/n), Pct(sums[5]/n))
	return tw.Flush()
}

// Table4 prints pollution counts for the HDS and HALO baselines.
func Table4(w io.Writer, cmps []*pipeline.Comparison) error {
	if err := need(cmps, pipeline.StrategyHDS|pipeline.StrategyHALO); err != nil {
		return err
	}
	for _, c := range cmps {
		if c.HDS.Pollution == nil || c.HALO.Pollution == nil {
			return fmt.Errorf("report: %s: the HDS or HALO run recorded no pollution", c.Benchmark)
		}
	}
	fmt.Fprintln(w, "Table 4: Pollution in HDS and HALO (objects directed to the special regions)")
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\tHDS hot\tHDS all\tHALO hot\tHALO all")
	for _, c := range cmps {
		h, g := c.HDS.Pollution, c.HALO.Pollution
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", c.Benchmark, h.Hot, h.All, g.Hot, g.All)
	}
	return tw.Flush()
}

// Table5 prints PreFix capture statistics: profiling-run vs long-run.
func Table5(w io.Writer, cmps []*pipeline.Comparison) error {
	if err := need(cmps, pipeline.StrategyPreFix); err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 5: PreFix Object Capture in Profiling vs. Long Run")
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\tprof HA%\tprof Hot\tprof HDS\tlong HA%\tlong Hot\tlong HDS\tcaptured")
	for _, c := range cmps {
		s := c.Summaries[c.Best]
		la := "-"
		lh, lhds, cap := "-", "-", "-"
		if c.LongRun != nil {
			la = fmt.Sprintf("%.1f%%", c.LongRun.HeapAccessPct)
			lh = fmt.Sprint(c.LongRun.HotObjects)
			lhds = fmt.Sprint(c.LongRun.HDSObjects)
			cap = fmt.Sprint(c.LongRun.CapturedObjects)
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%d\t%d\t%s\t%s\t%s\t%s\n",
			c.Benchmark, s.CoveragePct, s.HotObjects, s.HotInHDS, la, lh, lhds, cap)
	}
	return tw.Flush()
}

// Table6 prints costs and benefits: calls avoided, dynamic instruction
// change, peak memory change.
func Table6(w io.Writer, cmps []*pipeline.Comparison) error {
	if err := need(cmps, pipeline.StrategyBaseline|pipeline.StrategyPreFix); err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 6: Best PreFix: Benefits and Costs")
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\tcalls avoided\tdyn. instr change\tpeak memory change")
	for _, c := range cmps {
		best := c.BestResult()
		var avoided uint64
		if best.Capture != nil {
			avoided = best.Capture.CallsAvoided()
		}
		instrDelta := 0.0
		if bi := c.Baseline.Metrics.Instr; bi > 0 {
			instrDelta = 100 * (float64(best.Metrics.Instr) - float64(bi)) / float64(bi)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s -> %s\n",
			c.Benchmark, avoided, Pct(instrDelta),
			Bytes(c.Baseline.PeakBytes), Bytes(best.PeakBytes))
	}
	return tw.Flush()
}

// Figure11 prints the L1 miss-rate change; Figure12 the LLC miss rate;
// Figure13 backend stalls — all per benchmark, baseline vs best PreFix.
func Figure11(w io.Writer, cmps []*pipeline.Comparison) error {
	return missFigure(w, cmps, "Figure 11: L1 miss rate (baseline -> PreFix)", func(r pipeline.RunResult) float64 {
		return 100 * r.Metrics.Cache.L1MissRate()
	})
}

// Figure12 prints the LLC miss-rate change.
func Figure12(w io.Writer, cmps []*pipeline.Comparison) error {
	return missFigure(w, cmps, "Figure 12: LLC miss rate (baseline -> PreFix)", func(r pipeline.RunResult) float64 {
		return 100 * r.Metrics.Cache.LLCMissRate()
	})
}

// Figure13 prints the backend-stall change.
func Figure13(w io.Writer, cmps []*pipeline.Comparison) error {
	return missFigure(w, cmps, "Figure 13: Backend stall share of cycles (baseline -> PreFix)", func(r pipeline.RunResult) float64 {
		return r.Metrics.BackendStallPct()
	})
}

func missFigure(w io.Writer, cmps []*pipeline.Comparison, title string, metric func(pipeline.RunResult) float64) error {
	if err := need(cmps, pipeline.StrategyBaseline|pipeline.StrategyPreFix); err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\tbaseline\tPreFix\tchange")
	for _, c := range cmps {
		b := metric(c.Baseline)
		p := metric(c.BestResult())
		fmt.Fprintf(tw, "%s\t%.3f%%\t%.3f%%\t%+.3f pp\n", c.Benchmark, b, p, p-b)
	}
	return tw.Flush()
}

// AttributionTable prints the per-site before/after attribution: the
// top-N allocation sites by baseline LLC-miss share, each with its
// best-variant share and the ledger's one-line placement rationale.
// Benchmarks run without attribution print a skip note instead; a
// comparison that did not simulate the baseline and PreFix is an error.
func AttributionTable(w io.Writer, cmps []*pipeline.Comparison, topN int) error {
	exs := make([]*pipeline.Explain, len(cmps))
	for i, c := range cmps {
		ex, err := pipeline.BuildExplain(c, topN)
		if err != nil {
			return err
		}
		exs[i] = ex
	}
	fmt.Fprintln(w, "Attribution: per-site LLC-miss share, baseline -> best PreFix (top sites)")
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\tsite\tbase LLC\tbase share\tbest LLC\tbest share\twhy")
	for i, c := range cmps {
		ex := exs[i]
		if ex == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t(run without -attrib; no attribution collected)\n", c.Benchmark)
			continue
		}
		for _, s := range ex.Sites {
			fmt.Fprintf(tw, "%s\tsite %d\t%d\t%.1f%%\t%d\t%.1f%%\t%s\n",
				c.Benchmark, s.Site,
				s.Baseline.LLCMisses, s.Baseline.SharePct,
				s.Best.LLCMisses, s.Best.SharePct,
				attributionWhy(s))
		}
	}
	return tw.Flush()
}

// attributionWhy picks the one-line rationale for a site: the context
// classification if the planner recorded one, else the first decision,
// else a note that the site never reached the plan.
func attributionWhy(s pipeline.SiteExplain) string {
	for _, d := range s.Decisions {
		if d.Kind == "counter-classified" {
			return d.Reason
		}
	}
	if len(s.Decisions) > 0 {
		return s.Decisions[0].Reason
	}
	return "(no plan decisions: site not hot enough to place)"
}

// VarianceTable prints the seed-sweep summary (the paper's "averaged
// over 10 runs" methodology). A sweep with no runs, or fewer deltas than
// runs, is an error rather than a row of zeros.
func VarianceTable(w io.Writer, vs []*pipeline.Variance) error {
	for i, v := range vs {
		if v == nil || v.Runs < 1 || len(v.Deltas) != v.Runs {
			return fmt.Errorf("report: variance entry %d holds no complete sweep", i)
		}
	}
	fmt.Fprintln(w, "Seed variance: best-PreFix reduction across perturbed evaluation inputs")
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\truns\tmean\tbest\tworst")
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", v.Benchmark, v.Runs, Pct(v.MeanPct), Pct(v.MinPct), Pct(v.MaxPct))
	}
	return tw.Flush()
}

// Figure10 prints the multithreaded improvements.
func Figure10(w io.Writer, name string, results []pipeline.MTResult) error {
	fmt.Fprintf(w, "Figure 10: Effect of Multithreading (%s)\n", name)
	tw := newTab(w)
	fmt.Fprintln(tw, "threads\tbaseline cycles\tPreFix cycles\timprovement")
	for _, r := range results {
		fmt.Fprintf(tw, "%d\t%.3g\t%.3g\t%+.2f%%\n", r.Threads, r.BaselineCycles, r.PreFixCycles, r.ImprovementPct)
	}
	return tw.Flush()
}

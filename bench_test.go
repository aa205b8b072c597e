// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its artifact at bench
// scale (run `cmd/prefix-bench` for the full long-run versions) and
// reports the headline number as a custom metric. Run with -v to see the
// rendered tables.
package prefix

import (
	"bytes"
	"sync"
	"testing"

	"prefix/internal/hds"
	"prefix/internal/pipeline"
	"prefix/internal/report"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// comparisons caches one full bench-scale evaluation of all 13 benchmarks
// so the table-formatting benchmarks don't redundantly re-run the
// pipeline (BenchmarkTable3ExecutionTime measures the real cost).
var (
	cmpOnce sync.Once
	cmpAll  []*pipeline.Comparison
	cmpErr  error
)

func allComparisons(b *testing.B) []*pipeline.Comparison {
	b.Helper()
	cmpOnce.Do(func() {
		opt := pipeline.DefaultOptions()
		opt.UseBenchScale = true
		opt.CaptureLongRun = true
		for _, name := range workloads.Names() {
			cmp, err := pipeline.RunBenchmark(name, opt)
			if err != nil {
				cmpErr = err
				return
			}
			cmpAll = append(cmpAll, cmp)
		}
	})
	if cmpErr != nil {
		b.Fatal(cmpErr)
	}
	return cmpAll
}

func logTable(b *testing.B, render func(*bytes.Buffer) error) {
	b.Helper()
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + buf.String())
}

// BenchmarkFigure1HotCoverage regenerates Figure 1: the share of heap
// accesses from hot objects, per benchmark.
func BenchmarkFigure1HotCoverage(b *testing.B) {
	opt := pipeline.DefaultOptions()
	var pct float64
	for i := 0; i < b.N; i++ {
		spec, err := workloads.Get("mcf")
		if err != nil {
			b.Fatal(err)
		}
		prof, err := pipeline.CollectProfile(spec, opt)
		if err != nil {
			b.Fatal(err)
		}
		pct = prof.Hot.CoveragePct()
	}
	b.ReportMetric(pct, "hot-coverage-%")
	cmps := allComparisons(b)
	logTable(b, func(buf *bytes.Buffer) error { return report.Figure1(buf, cmps) })
}

// BenchmarkFigure2Reconstitution regenerates the Figure 2 layout
// walk-through from a live perl profile.
func BenchmarkFigure2Reconstitution(b *testing.B) {
	cmps := allComparisons(b)
	var streams int
	for i := 0; i < b.N; i++ {
		for _, c := range cmps {
			streams += len(c.Summaries[c.Best].Recon.RHDS)
		}
	}
	b.ReportMetric(float64(streams)/float64(b.N), "rhds-streams")
}

// BenchmarkTable2Contexts regenerates Table 2: pattern types, #sites and
// #counters per benchmark.
func BenchmarkTable2Contexts(b *testing.B) {
	cmps := allComparisons(b)
	var counters int
	for i := 0; i < b.N; i++ {
		counters = 0
		for _, c := range cmps {
			counters += c.Plans[c.Best].NumCounters()
		}
	}
	b.ReportMetric(float64(counters), "total-counters")
	logTable(b, func(buf *bytes.Buffer) error { return report.Table2(buf, cmps) })
}

// BenchmarkTable3ExecutionTime is the headline experiment: it runs the
// full pipeline (profile, plan, six strategy runs) for one representative
// benchmark per iteration and reports the best-variant reduction; the
// logged table covers all 13 benchmarks.
func BenchmarkTable3ExecutionTime(b *testing.B) {
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	var best float64
	for i := 0; i < b.N; i++ {
		cmp, err := pipeline.RunBenchmark("ft", opt)
		if err != nil {
			b.Fatal(err)
		}
		best = cmp.BestResult().TimeDeltaPct(cmp.Baseline)
	}
	b.ReportMetric(best, "ft-best-%")
	cmps := allComparisons(b)
	var sum float64
	for _, c := range cmps {
		sum += c.BestResult().TimeDeltaPct(c.Baseline)
	}
	b.ReportMetric(sum/float64(len(cmps)), "avg-best-%")
	logTable(b, func(buf *bytes.Buffer) error { return report.Table3(buf, cmps) })
}

// BenchmarkTable4Pollution regenerates Table 4: objects directed to the
// HDS and HALO regions vs how many of them are hot.
func BenchmarkTable4Pollution(b *testing.B) {
	cmps := allComparisons(b)
	var spurious uint64
	for i := 0; i < b.N; i++ {
		spurious = 0
		for _, c := range cmps {
			if p := c.HDS.Pollution; p != nil {
				spurious += p.Spurious()
			}
			if p := c.HALO.Pollution; p != nil {
				spurious += p.Spurious()
			}
		}
	}
	b.ReportMetric(float64(spurious), "spurious-objects")
	logTable(b, func(buf *bytes.Buffer) error { return report.Table4(buf, cmps) })
}

// BenchmarkTable5Capture regenerates Table 5: PreFix capture precision in
// the profiling vs evaluation runs.
func BenchmarkTable5Capture(b *testing.B) {
	cmps := allComparisons(b)
	var ha float64
	for i := 0; i < b.N; i++ {
		ha = 0
		n := 0
		for _, c := range cmps {
			if c.LongRun != nil {
				ha += c.LongRun.HeapAccessPct
				n++
			}
		}
		if n > 0 {
			ha /= float64(n)
		}
	}
	b.ReportMetric(ha, "avg-longrun-HA-%")
	logTable(b, func(buf *bytes.Buffer) error { return report.Table5(buf, cmps) })
}

// BenchmarkTable6CostsBenefits regenerates Table 6: calls avoided,
// instruction-count change, peak memory change.
func BenchmarkTable6CostsBenefits(b *testing.B) {
	cmps := allComparisons(b)
	var avoided uint64
	for i := 0; i < b.N; i++ {
		avoided = 0
		for _, c := range cmps {
			if cap := c.BestResult().Capture; cap != nil {
				avoided += cap.CallsAvoided()
			}
		}
	}
	b.ReportMetric(float64(avoided), "calls-avoided")
	logTable(b, func(buf *bytes.Buffer) error { return report.Table6(buf, cmps) })
}

// BenchmarkFigure9Heatmap regenerates the Figure 9 data: leela's hot
// access footprint under the baseline vs PreFix.
func BenchmarkFigure9Heatmap(b *testing.B) {
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	var ratio float64
	for i := 0; i < b.N; i++ {
		cmp, err := pipeline.RunBenchmark("leela", opt)
		if err != nil {
			b.Fatal(err)
		}
		var hb, ho *report.Heatmap
		err = pipeline.AnalyzeBaselineAndBest(cmp, opt, pipeline.DefaultJobs(), func(best bool, a *trace.Analysis) {
			if best {
				ho = report.BuildHeatmapFrom(a, 120, 80)
			} else {
				hb = report.BuildHeatmapFrom(a, 120, 80)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		if ho.Footprint > 0 {
			ratio = float64(hb.Footprint) / float64(ho.Footprint)
		}
	}
	b.ReportMetric(ratio, "footprint-reduction-x")
}

// BenchmarkFigure10Multithreading regenerates Figure 10 for mcf.
func BenchmarkFigure10Multithreading(b *testing.B) {
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	var results []pipeline.MTResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = pipeline.RunMultithreaded("mcf", []int{1, 2, 4, 8}, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(results[len(results)-1].ImprovementPct, "8-thread-improvement-%")
	logTable(b, func(buf *bytes.Buffer) error { return report.Figure10(buf, "mcf", results) })
}

// BenchmarkFigure11L1Misses, 12 and 13 regenerate the miss-rate and
// stall figures from the shared evaluation.
func BenchmarkFigure11L1Misses(b *testing.B) {
	cmps := allComparisons(b)
	var delta float64
	for i := 0; i < b.N; i++ {
		delta = 0
		for _, c := range cmps {
			delta += 100 * (c.BestResult().Metrics.Cache.L1MissRate() - c.Baseline.Metrics.Cache.L1MissRate())
		}
		delta /= float64(len(cmps))
	}
	b.ReportMetric(delta, "avg-L1-miss-pp")
	logTable(b, func(buf *bytes.Buffer) error { return report.Figure11(buf, cmps) })
}

// BenchmarkFigure12LLCMisses regenerates Figure 12.
func BenchmarkFigure12LLCMisses(b *testing.B) {
	cmps := allComparisons(b)
	var delta float64
	for i := 0; i < b.N; i++ {
		delta = 0
		for _, c := range cmps {
			delta += 100 * (c.BestResult().Metrics.Cache.LLCMissRate() - c.Baseline.Metrics.Cache.LLCMissRate())
		}
		delta /= float64(len(cmps))
	}
	b.ReportMetric(delta, "avg-LLC-miss-pp")
	logTable(b, func(buf *bytes.Buffer) error { return report.Figure12(buf, cmps) })
}

// BenchmarkFigure13BackendStalls regenerates Figure 13.
func BenchmarkFigure13BackendStalls(b *testing.B) {
	cmps := allComparisons(b)
	var delta float64
	for i := 0; i < b.N; i++ {
		delta = 0
		for _, c := range cmps {
			delta += c.BestResult().Metrics.BackendStallPct() - c.Baseline.Metrics.BackendStallPct()
		}
		delta /= float64(len(cmps))
	}
	b.ReportMetric(delta, "avg-stall-pp")
	logTable(b, func(buf *bytes.Buffer) error { return report.Figure13(buf, cmps) })
}

// BenchmarkFigure14BinarySize regenerates the binary-size accounting.
func BenchmarkFigure14BinarySize(b *testing.B) {
	cmps := allComparisons(b)
	var growth float64
	for i := 0; i < b.N; i++ {
		growth = 0
		// Formatting includes the Rewrite computation per row.
		var buf bytes.Buffer
		if err := report.Figure14(&buf, cmps); err != nil {
			b.Fatal(err)
		}
		growth = float64(buf.Len())
	}
	b.ReportMetric(growth, "report-bytes")
	logTable(b, func(buf *bytes.Buffer) error { return report.Figure14(buf, cmps) })
}

// BenchmarkAblationSequiturVsLCS compares the paper's LCS miner with the
// original Sequitur detector (§3.1: "as effective as Sequitur" but more
// efficient) on a live perl profile.
func BenchmarkAblationSequiturVsLCS(b *testing.B) {
	spec, err := workloads.Get("perl")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := pipeline.CollectProfile(spec, pipeline.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	refs := hds.CollapseRefs(prof.Analysis.Refs, prof.Hot.IDs)
	cfg := hds.DefaultConfig()

	b.Run("lcs", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = len(hds.MineLCS(refs, cfg))
		}
		b.ReportMetric(float64(n), "streams")
	})
	b.Run("sequitur", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = len(hds.MineSequitur(refs, cfg))
		}
		b.ReportMetric(float64(n), "streams")
	})
}

// BenchmarkAblationContextCheck measures the per-allocation cost of the
// three pattern categories' runtime checks (the Table 1 "lightweight
// instrumentation" claim) via the modeled instruction counts.
func BenchmarkAblationContextCheck(b *testing.B) {
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	cmp, err := pipeline.RunBenchmark("health", opt)
	if err != nil {
		b.Fatal(err)
	}
	var perAlloc float64
	for i := 0; i < b.N; i++ {
		cap := cmp.BestResult().Capture
		total := cap.MallocsAvoided + cap.FallbackMallocs
		if total > 0 {
			perAlloc = float64(cap.CheckInstr) / float64(total)
		}
	}
	b.ReportMetric(perAlloc, "check-instr/alloc")
}

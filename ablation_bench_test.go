// Ablation benchmarks for the design choices DESIGN.md calls out: counter
// sharing, object recycling, the next-line prefetcher, and the hybrid
// context. Each reports the with/without effect as custom metrics.
package prefix

import (
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/pipeline"
	core "prefix/internal/prefix"
	"prefix/internal/workloads"
)

// BenchmarkAblationCounterSharing plans mcf with and without counter
// sharing: sharing collapses six sites onto two counters with no loss of
// capture (§2.2.1).
func BenchmarkAblationCounterSharing(b *testing.B) {
	spec, err := workloads.Get("mcf")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := pipeline.CollectProfile(spec, pipeline.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var shared, unshared int
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultPlanConfig("mcf", core.VariantHot)
		p1, _, err := core.BuildPlan(prof.Analysis, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Share.Disabled = true
		p2, _, err := core.BuildPlan(prof.Analysis, cfg)
		if err != nil {
			b.Fatal(err)
		}
		shared, unshared = p1.NumCounters(), p2.NumCounters()
	}
	b.ReportMetric(float64(shared), "counters-shared")
	b.ReportMetric(float64(unshared), "counters-unshared")
	if shared >= unshared {
		b.Fatalf("sharing should reduce counters: %d vs %d", shared, unshared)
	}
}

// BenchmarkAblationRecycling evaluates leela with recycling on and off:
// without the ring, the plan degenerates to single-use static slots and
// the win disappears (§2.4).
func BenchmarkAblationRecycling(b *testing.B) {
	spec, err := workloads.Get("leela")
	if err != nil {
		b.Fatal(err)
	}
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	prof, err := pipeline.CollectProfile(spec, opt)
	if err != nil {
		b.Fatal(err)
	}
	run := func(ratio float64) (float64, uint64) {
		cfg := core.DefaultPlanConfig("leela", core.VariantHot)
		cfg.RecycleRatio = ratio
		plan, _, err := core.BuildPlan(prof.Analysis, cfg)
		if err != nil {
			b.Fatal(err)
		}
		alloc := core.NewAllocator(plan, opt.Cache.Cost)
		m := machine.New(alloc, opt.Cache)
		spec.Program.Run(m, spec.Bench)
		return m.Finish().Cycles, plan.RegionSize
	}
	var withCycles, withoutCycles float64
	var withRegion, withoutRegion uint64
	for i := 0; i < b.N; i++ {
		withCycles, withRegion = run(4)
		withoutCycles, withoutRegion = run(0)
	}
	b.ReportMetric(100*(withoutCycles-withCycles)/withoutCycles, "recycling-gain-%")
	b.ReportMetric(float64(withoutRegion)/float64(withRegion), "region-shrink-x")
}

// BenchmarkAblationPrefetcher runs the ft baseline with and without the
// next-line prefetcher: sequential hot layouts depend on it, which is why
// the simulator models it.
func BenchmarkAblationPrefetcher(b *testing.B) {
	spec, err := workloads.Get("ft")
	if err != nil {
		b.Fatal(err)
	}
	run := func(prefetch bool) cachesim.Counts {
		cfg := cachesim.ScaledConfig()
		cfg.NextLinePrefetch = prefetch
		m := machine.New(baselines.NewBaseline(cfg.Cost), cfg)
		spec.Program.Run(m, spec.Bench)
		return m.Finish().Cache
	}
	var on, off cachesim.Counts
	for i := 0; i < b.N; i++ {
		on = run(true)
		off = run(false)
	}
	b.ReportMetric(100*on.LLCMissRate(), "llc-miss-%-prefetch")
	b.ReportMetric(100*off.LLCMissRate(), "llc-miss-%-noprefetch")
	if on.LLCMisses >= off.LLCMisses {
		b.Fatal("prefetcher should reduce demand LLC misses on ft")
	}
}

// BenchmarkAblationHybridContext measures the §2.2.2 hybrid check's cost
// on a deterministic benchmark (it should change nothing but the check
// instructions).
func BenchmarkAblationHybridContext(b *testing.B) {
	spec, err := workloads.Get("xalanc")
	if err != nil {
		b.Fatal(err)
	}
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	prof, err := pipeline.CollectProfile(spec, opt)
	if err != nil {
		b.Fatal(err)
	}
	run := func(hybrid bool) (float64, core.Capture) {
		cfg := core.DefaultPlanConfig("xalanc", core.VariantHot)
		cfg.HybridContext = hybrid
		plan, _, err := core.BuildPlan(prof.Analysis, cfg)
		if err != nil {
			b.Fatal(err)
		}
		alloc := core.NewAllocator(plan, opt.Cache.Cost)
		m := machine.New(alloc, opt.Cache)
		spec.Program.Run(m, spec.Bench)
		return m.Finish().Cycles, alloc.Capture()
	}
	var plain, hybrid float64
	var cap core.Capture
	for i := 0; i < b.N; i++ {
		plain, _ = run(false)
		hybrid, cap = run(true)
	}
	b.ReportMetric(100*(hybrid-plain)/plain, "hybrid-overhead-%")
	b.ReportMetric(float64(cap.HybridRejects), "hybrid-rejects")
	if cap.MallocsAvoided == 0 {
		b.Fatal("hybrid run captured nothing")
	}
}

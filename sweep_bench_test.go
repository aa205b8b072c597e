// Parameter sweeps: sensitivity of the headline result to the simulated
// LLC size and to the hot-coverage threshold — the knobs a user would
// turn first when porting the evaluation to a different machine model.
package prefix

import (
	"fmt"
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/machine"
	"prefix/internal/pipeline"
	core "prefix/internal/prefix"
	"prefix/internal/workloads"
)

// BenchmarkSweepLLCSize runs ft's baseline-vs-PreFix comparison across
// LLC sizes. The gain persists across the sweep because it comes from
// line sharing in L1 and LLC-to-L1 traffic, not from one lucky capacity
// crossover.
func BenchmarkSweepLLCSize(b *testing.B) {
	spec, err := workloads.Get("ft")
	if err != nil {
		b.Fatal(err)
	}
	for _, mb := range []uint64{1, 2, 4, 8} {
		mb := mb
		b.Run(fmt.Sprintf("llc=%dMB", mb), func(b *testing.B) {
			opt := pipeline.DefaultOptions()
			opt.UseBenchScale = true
			opt.Cache.LLCSize = mb << 20
			opt.Cache.LLCWays = 16
			var delta float64
			for i := 0; i < b.N; i++ {
				prof, err := pipeline.CollectProfile(spec, opt)
				if err != nil {
					b.Fatal(err)
				}
				plan, _, err := prof.Prepared.Place(core.VariantHot, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				base := machine.New(baselines.NewBaseline(opt.Cache.Cost), opt.Cache)
				spec.Program.Run(base, spec.Bench)
				bm := base.Finish()
				pm := machine.New(core.NewAllocator(plan, opt.Cache.Cost), opt.Cache)
				spec.Program.Run(pm, spec.Bench)
				om := pm.Finish()
				delta = 100 * (om.Cycles - bm.Cycles) / bm.Cycles
			}
			b.ReportMetric(delta, "time-delta-%")
			if delta > -10 {
				b.Errorf("ft gain collapsed at LLC=%dMB: %+.2f%%", mb, delta)
			}
		})
	}
}

// BenchmarkSweepHotCoverage sweeps the hot-selection coverage threshold
// on health: lower coverage shrinks the preallocated region but forfeits
// capture, tracing the paper's "memory footprint is controllable by
// limiting the size of the preallocated memory" trade-off.
func BenchmarkSweepHotCoverage(b *testing.B) {
	spec, err := workloads.Get("health")
	if err != nil {
		b.Fatal(err)
	}
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	prof, err := pipeline.CollectProfile(spec, opt)
	if err != nil {
		b.Fatal(err)
	}
	var prevRegion uint64
	for _, cov := range []float64{0.5, 0.75, 0.9, 0.96} {
		cov := cov
		b.Run(fmt.Sprintf("coverage=%.2f", cov), func(b *testing.B) {
			var region uint64
			var delta float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultPlanConfig("health", core.VariantHot)
				cfg.Hot.Coverage = cov
				cfg.PromoteAll = 0 // isolate the coverage knob
				plan, _, err := core.BuildPlan(prof.Analysis, cfg)
				if err != nil {
					b.Fatal(err)
				}
				region = plan.RegionSize
				base := machine.New(baselines.NewBaseline(opt.Cache.Cost), opt.Cache)
				spec.Program.Run(base, spec.Bench)
				bm := base.Finish()
				pm := machine.New(core.NewAllocator(plan, opt.Cache.Cost), opt.Cache)
				spec.Program.Run(pm, spec.Bench)
				om := pm.Finish()
				delta = 100 * (om.Cycles - bm.Cycles) / bm.Cycles
			}
			b.ReportMetric(float64(region), "region-bytes")
			b.ReportMetric(delta, "time-delta-%")
			if region < prevRegion {
				b.Errorf("region must grow with coverage: %d after %d", region, prevRegion)
			}
			prevRegion = region
		})
	}
}

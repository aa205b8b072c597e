package report

import (
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/machine"
	"prefix/internal/pipeline"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// heatmapSink keeps the benchmarked result live.
var heatmapSink *Heatmap

// BenchmarkBuildHeatmap builds Figure 9's baseline heatmap from the
// analysis of leela's bench-scale evaluation run under the baseline
// allocator.
func BenchmarkBuildHeatmap(b *testing.B) {
	spec, err := workloads.Get("leela")
	if err != nil {
		b.Fatal(err)
	}
	opt := pipeline.DefaultOptions()
	an := trace.NewAnalyzer()
	m := machine.New(baselines.NewBaseline(opt.Cache.Cost), opt.Cache, machine.WithRecorder(an))
	spec.Program.Run(m, spec.Bench)
	m.Finish()
	a := an.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heatmapSink = BuildHeatmapFrom(a, 120, 80)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(a.Refs)), "ns/ref")
}

package pipeline

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/machine"
	"prefix/internal/obs"
	"prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// fastOpt is the cheapest full-pipeline configuration for unit tests.
func fastOpt() Options {
	opt := DefaultOptions()
	opt.UseBenchScale = true
	return opt
}

func TestCollectProfile(t *testing.T) {
	spec, err := workloads.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := CollectProfile(spec, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Analysis.HeapAccesses == 0 || len(prof.Hot.Objects) == 0 {
		t.Error("profile is empty")
	}
	if len(prof.StreamsLCS) == 0 {
		t.Error("LCS mining found nothing on mcf")
	}
	if prof.Metrics.Cycles <= 0 {
		t.Error("profile metrics missing")
	}
}

func TestRunBenchmarkStructure(t *testing.T) {
	cmp, err := RunBenchmark("ft", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Benchmark != "ft" {
		t.Error("name lost")
	}
	if cmp.Baseline.Metrics.Cycles <= 0 || cmp.HDS.Metrics.Cycles <= 0 || cmp.HALO.Metrics.Cycles <= 0 {
		t.Error("missing strategy runs")
	}
	for _, v := range []prefix.Variant{prefix.VariantHot, prefix.VariantHDS, prefix.VariantHDSHot} {
		if _, ok := cmp.PreFix[v]; !ok {
			t.Errorf("missing variant %v", v)
		}
		if cmp.Plans[v] == nil || cmp.Summaries[v] == nil {
			t.Errorf("missing plan/summary for %v", v)
		}
	}
	if cmp.HDS.Pollution == nil || cmp.HALO.Pollution == nil {
		t.Error("baselines must report pollution")
	}
	if cmp.BestResult().Capture == nil {
		t.Error("PreFix runs must report capture")
	}
	// Best must be the variant with the fewest cycles.
	best := cmp.PreFix[cmp.Best].Metrics.Cycles
	for v, r := range cmp.PreFix {
		if r.Metrics.Cycles < best {
			t.Errorf("best=%v but %v is faster", cmp.Best, v)
		}
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	if _, err := RunBenchmark("nope", fastOpt()); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestCaptureLongRun(t *testing.T) {
	opt := fastOpt()
	opt.CaptureLongRun = true
	cmp, err := RunBenchmark("ft", opt)
	if err != nil {
		t.Fatal(err)
	}
	lr := cmp.LongRun
	if lr == nil {
		t.Fatal("long-run capture missing")
	}
	// The paper's claim (Table 5): the preallocated region serves a high
	// share of heap accesses and captures only hot objects.
	if lr.HeapAccessPct < 50 {
		t.Errorf("long-run HA%% = %.1f, want high", lr.HeapAccessPct)
	}
	if lr.HotObjects == 0 {
		t.Error("no hot objects captured")
	}
	spurious := lr.CapturedObjects - lr.HotObjects
	if float64(spurious) > 0.05*float64(lr.CapturedObjects) {
		t.Errorf("pollution in PreFix region: %d of %d captured objects not hot",
			spurious, lr.CapturedObjects)
	}
}

func TestTimeDeltaPct(t *testing.T) {
	base := RunResult{}
	base.Metrics.Cycles = 200
	r := RunResult{}
	r.Metrics.Cycles = 150
	if got := r.TimeDeltaPct(base); got != -25 {
		t.Errorf("delta = %v", got)
	}
	var zero RunResult
	if r.TimeDeltaPct(zero) != 0 {
		t.Error("zero baseline must not divide by zero")
	}
}

func TestRunMultithreaded(t *testing.T) {
	results, err := RunMultithreaded("mcf", []int{1, 2}, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.BaselineCycles <= 0 || r.PreFixCycles <= 0 {
			t.Errorf("empty MT result: %+v", r)
		}
	}
	if results[1].BaselineCycles >= results[0].BaselineCycles {
		t.Error("two threads should have lower parallel time than one")
	}
}

func TestRunMultithreadedRejectsSingleThreaded(t *testing.T) {
	if _, err := RunMultithreaded("health", []int{1}, fastOpt()); err == nil {
		t.Error("single-threaded benchmark accepted")
	}
}

// TestRunMultithreadedRejectsThreadCountBelowOne: a thread count below
// 1 is an error naming the count, returned before anything is profiled.
func TestRunMultithreadedRejectsThreadCountBelowOne(t *testing.T) {
	for _, counts := range [][]int{{0}, {1, -3}} {
		opt := fastOpt()
		opt.Tracer = obs.NewTracer()
		bad := counts[len(counts)-1]
		_, err := RunMultithreaded("mcf", counts, opt)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("thread count %d", bad)) {
			t.Errorf("threads %v: err = %v, want one naming thread count %d", counts, err, bad)
		}
		if n := len(opt.Tracer.Roots()); n != 0 {
			t.Errorf("threads %v: %d root spans, want none (nothing profiled)", counts, n)
		}
	}
}

// figure9Oracle records cmp's evaluation input under the baseline and
// under cmp.Plans[cmp.Best], each on a bare machine with a recorder
// attached, as Figure 9 defines its two runs: no pipeline helper in
// between. opt must be the bench-scale options cmp was evaluated with.
func figure9Oracle(t *testing.T, cmp *Comparison, opt Options) (base, best *trace.Trace) {
	t.Helper()
	spec, err := workloads.Get(cmp.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	record := func(alloc machine.Allocator) *trace.Trace {
		rec := trace.NewRecorder()
		m := machine.New(alloc, opt.Cache, machine.WithRecorder(rec))
		spec.Program.Run(m, spec.Bench)
		m.Finish()
		return rec.Trace()
	}
	return record(baselines.NewBaseline(opt.Cache.Cost)), record(prefix.NewAllocator(cmp.Plans[cmp.Best], opt.Cache.Cost))
}

// writeTrace returns tr's PFXT bytes.
func writeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceBaselineAndBest: the traces are those of the baseline and of
// the variant the full comparison crowns, recorded directly.
func TestTraceBaselineAndBest(t *testing.T) {
	base, best, variant, err := TraceBaselineAndBest("swissmap", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunBenchmark("swissmap", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if variant != cmp.Best {
		t.Errorf("traced variant = %v, but the comparison's best is %v", variant, cmp.Best)
	}
	wantBase, wantBest := figure9Oracle(t, cmp, fastOpt())
	if len(wantBase.Events) == 0 || len(wantBest.Events) == 0 {
		t.Fatal("empty oracle traces")
	}
	if !bytes.Equal(writeTrace(t, base), writeTrace(t, wantBase)) {
		t.Error("baseline trace differs from the directly recorded baseline run")
	}
	if !bytes.Equal(writeTrace(t, best), writeTrace(t, wantBest)) {
		t.Error("best-variant trace differs from the directly recorded best-plan run")
	}
}

// TestAnalyzeBaselineAndBest: the Figure 9 analyses of a comparison's
// baseline and best plan, taken while the runs execute on one or two
// workers, are the analyses of the directly recorded runs.
func TestAnalyzeBaselineAndBest(t *testing.T) {
	cmp, err := RunBenchmark("swissmap", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	baseTr, bestTr := figure9Oracle(t, cmp, fastOpt())
	wantBase, wantBest := trace.Analyze(baseTr), trace.Analyze(bestTr)
	for _, jobs := range []int{1, 2} {
		var mu sync.Mutex
		got := map[bool]*trace.Analysis{}
		err := AnalyzeBaselineAndBest(cmp, fastOpt(), jobs, func(best bool, a *trace.Analysis) {
			mu.Lock()
			defer mu.Unlock()
			got[best] = a
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[false], wantBase) {
			t.Errorf("jobs=%d: baseline analysis differs from the analysis of the baseline trace", jobs)
		}
		if !reflect.DeepEqual(got[true], wantBest) {
			t.Errorf("jobs=%d: best-variant analysis differs from the analysis of the best-variant trace", jobs)
		}
	}
}

// TestCollectProfileStreamingParity is the tentpole acceptance check at
// the pipeline layer: the bounded-memory streaming profile must be
// identical to the in-memory reference profile.
func TestCollectProfileStreamingParity(t *testing.T) {
	spec, err := workloads.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := CollectProfile(spec, fastOpt())
	if err != nil {
		t.Fatal(err)
	}

	opt := fastOpt()
	opt.Stream = true
	opt.StreamChunkEvents = 512
	opt.StreamDir = t.TempDir()
	opt.Metrics = obs.NewRegistry()
	streamed, err := CollectProfile(spec, opt)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Analysis, streamed.Analysis) {
		t.Error("streaming analysis differs from in-memory analysis")
	}
	if !reflect.DeepEqual(plain.Hot, streamed.Hot) {
		t.Error("hot sets differ")
	}
	if !reflect.DeepEqual(plain.StreamsLCS, streamed.StreamsLCS) ||
		!reflect.DeepEqual(plain.StreamsSequitur, streamed.StreamsSequitur) {
		t.Error("mined streams differ")
	}
	if plain.Metrics != streamed.Metrics {
		t.Errorf("profiling-run metrics differ:\n plain %+v\nstream %+v", plain.Metrics, streamed.Metrics)
	}

	// The recorder metrics must reflect a genuinely bounded run.
	reg := opt.Metrics
	events := reg.Counter("prefix_trace_recorded_events_total", "benchmark", "mcf").Value()
	if events != uint64(plain.Analysis.Events) {
		t.Errorf("recorded events = %d, want %d", events, plain.Analysis.Events)
	}
	if chunks := reg.Counter("prefix_trace_spilled_chunks_total", "benchmark", "mcf").Value(); chunks == 0 {
		t.Error("no chunks spilled at chunk size 512")
	}
	if peak := reg.Gauge("prefix_trace_peak_buffered_events", "benchmark", "mcf").Value(); peak > 512 {
		t.Errorf("peak buffered events = %v, above the 512 budget", peak)
	}
}

// TestRunBenchmarkStreamingParity runs the full pipeline with streaming
// profiles: every downstream number must be unchanged.
func TestRunBenchmarkStreamingParity(t *testing.T) {
	plain, err := RunBenchmark("ft", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpt()
	opt.Stream = true
	opt.StreamChunkEvents = 1024
	opt.StreamDir = t.TempDir()
	streamed, err := RunBenchmark("ft", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Baseline.Metrics, streamed.Baseline.Metrics) {
		t.Error("baseline metrics differ under streaming profiles")
	}
	for _, v := range fastOpt().Variants {
		if plain.PreFix[v].Metrics != streamed.PreFix[v].Metrics {
			t.Errorf("%v metrics differ under streaming profiles", v)
		}
	}
	if plain.Best != streamed.Best {
		t.Errorf("best variant differs: plain %v, streamed %v", plain.Best, streamed.Best)
	}
}

// TestRunMultithreadedStreamingParity: Figure 10's group profile takes
// the spill path under Options.Stream, and its results do not depend on
// it or on the job count.
func TestRunMultithreadedStreamingParity(t *testing.T) {
	counts := []int{1, 2}
	want, err := RunMultithreadedJobs("mcf", counts, fastOpt(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		for _, jobs := range []int{1, 2} {
			opt := fastOpt()
			opt.Stream = stream
			opt.StreamChunkEvents = 1024
			opt.StreamDir = t.TempDir()
			opt.Metrics = obs.NewRegistry()
			got, err := RunMultithreadedJobs("mcf", counts, opt, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stream=%v jobs=%d: results differ:\n got %+v\nwant %+v", stream, jobs, got, want)
			}
			chunks := opt.Metrics.Counter("prefix_trace_spilled_chunks_total", "benchmark", "mcf", "phase", "figure10").Value()
			if spilled := chunks > 0; spilled != stream {
				t.Errorf("stream=%v jobs=%d: %d spilled chunks", stream, jobs, chunks)
			}
		}
	}
}

// TestCollectProfileStreamBadDir surfaces spill-file creation failures
// as errors instead of panics.
func TestCollectProfileStreamBadDir(t *testing.T) {
	spec, err := workloads.Get("ft")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpt()
	opt.Stream = true
	opt.StreamDir = filepath.Join(t.TempDir(), "does", "not", "exist")
	if _, err := CollectProfile(spec, opt); err == nil {
		t.Fatal("missing spill dir should fail profile collection")
	}
}

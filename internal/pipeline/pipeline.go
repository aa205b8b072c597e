// Package pipeline orchestrates the full PreFix flow of the paper's
// Figure 8 for one benchmark: run the profiling input under the tracing
// machine, analyze the trace (hot objects, hot data streams, layout,
// contexts), build the per-variant plans and baseline configurations, run
// the evaluation input once per demanded strategy — variants whose plans
// behave the same share one simulation — and assemble the measurements
// every table and figure reports.
package pipeline

import (
	"fmt"
	"io"
	"math"
	"os"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/hds"
	"prefix/internal/hotness"
	"prefix/internal/machine"
	"prefix/internal/obs"
	"prefix/internal/obs/perfstat"
	"prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// Options configures a benchmark evaluation.
type Options struct {
	// Cache is the simulated memory hierarchy (ScaledConfig by default).
	Cache cachesim.Config
	// Plan is the base planning configuration; Variant is overridden per
	// run and Benchmark is filled in by the pipeline.
	Plan prefix.PlanConfig
	// UseBenchScale selects spec.Bench instead of spec.Long for the
	// evaluation runs (used by the Go benchmark harness).
	UseBenchScale bool
	// CaptureLongRun additionally re-runs the best PreFix variant and
	// analyzes that run as it executes, producing the Table 5 long-run
	// columns. It costs one more evaluation run; the trace is not kept.
	CaptureLongRun bool
	// Demand is the set of strategies each evaluation simulates; its zero
	// value is every strategy. Work only a left-out strategy reads is
	// skipped too: Sequitur is mined only when the HDS baseline is
	// demanded (or Plan.Miner is Sequitur), and the variants are placed
	// only when PreFix is. CaptureLongRun needs PreFix.
	Demand Demand
	// Variants to evaluate; defaults to all three. Every variant gets its
	// own plan, result, eval span and metric series, but a variant whose
	// plan behaves like an earlier one's (prefix.Plan.SameBehaviour)
	// reuses that variant's simulation instead of running its own.
	Variants []prefix.Variant
	// Metrics, when non-nil, receives every stage's counters and every
	// run's metrics (exportable as Prometheus text or JSON). Tracer, when
	// non-nil, receives one span per Figure-8 phase. Both default to nil;
	// the no-op path does no observability work, so reported numbers are
	// identical with or without them.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Perf, when non-nil, receives host-cost samples: every profile,
	// suite, variance, multithreaded, and figure9 job is bracketed by a
	// perfstat scope measuring wall time, heap allocation, GC cost, and
	// events/sec throughput on the host. Like Metrics/Tracer it is
	// nil-safe and never influences reported results.
	Perf *perfstat.Collector
	// Labels are extra label key/value pairs appended to every metric
	// series the pipeline publishes. The variance sweep uses it to attach
	// a "seed" label so all N seed runs survive in the export instead of
	// overwriting one another.
	Labels []string
	// Progress, when non-nil, receives a structured obs.JobEvent as each
	// suite job starts (running) and finishes (done or failed) — the CLIs
	// print stderr progress lines through it. Suite runners invoke it
	// from worker goroutines, so it must be safe for concurrent use.
	Progress func(ev obs.JobEvent)
	// Attribution enables object-centric attribution: every evaluation
	// run's machine charges each cache/TLB event to the malloc site that
	// owns the touched address (RunResult.Attrib), every plan build
	// records its decision ledger (Summary.Ledger), and per-site
	// prefix_attrib_* series are published when Metrics is attached.
	// Purely observational: reported Counts and report bytes are
	// identical with or without it — the attribution walk is the same
	// simulation path — at the cost of one range lookup per access.
	Attribution bool
	// Stream routes profiling runs through a spill file: the machine
	// records into a chunked trace file on disk and the analysis
	// consumes it as a stream. The default path already analyzes the
	// run as it executes and keeps no trace, so this saves no memory;
	// the resulting Profile is identical either way.
	Stream bool
	// StreamChunkEvents bounds the spill buffer in events per chunk;
	// values < 1 select trace.DefaultChunkEvents.
	StreamChunkEvents int
	// StreamDir is where profiling spill files are created (the system
	// temp directory when empty). Files are removed when the profile
	// collection returns.
	StreamDir string
}

// DefaultOptions returns the standard evaluation setup.
func DefaultOptions() Options {
	return Options{
		Cache:    cachesim.ScaledConfig(),
		Plan:     prefix.DefaultPlanConfig("", prefix.VariantHDSHot),
		Variants: []prefix.Variant{prefix.VariantHot, prefix.VariantHDS, prefix.VariantHDSHot},
	}
}

// Profile is the product of the profiling run.
type Profile struct {
	Analysis *trace.Analysis
	Hot      *hotness.Set
	// StreamsLCS is the paper's LCS-mined OHDS (drives PreFix planning
	// and HALO affinity grouping); StreamsSequitur drives the HDS
	// baseline's site choice, as in the original HDS work, and is mined
	// only when the HDS baseline is demanded or the planner mines with
	// Sequitur.
	StreamsLCS      []hds.Stream
	StreamsSequitur []hds.Stream
	// Metrics of the profiling run itself.
	Metrics machine.Metrics
	// Stats is what the profiling recorder captured (event count, spill
	// chunking) — the event total feeds host-cost throughput accounting.
	Stats trace.RecorderStats
	// AnalysisHost is the analyze stage's own host-cost sample (phase
	// "analyze", events/sec over the recorded events), measured when
	// Options.Perf is attached; nil otherwise. On the default path the
	// wall time is the analyzer's own feed time and carries no allocation
	// figures; under Options.Stream it brackets the stream decode and
	// analysis. It never feeds report output.
	AnalysisHost *perfstat.Sample
	// Prepared is the variant-independent planning of this profile
	// (reconstitution, contexts, recycling) over the streams of the
	// planner's miner. Every variant's plan, for every evaluation input,
	// is placed from it.
	Prepared *prefix.Prepared
}

// CollectProfile runs the benchmark's profiling input with the baseline
// allocator and analyzes the run.
func CollectProfile(spec workloads.Spec, opt Options) (*Profile, error) {
	return collectProfile(spec, opt, opt.Tracer.Start("profile "+spec.Program.Name()))
}

// collectProfile is CollectProfile as the "profile" stage on the span
// its caller opened for it: one host scope brackets the stage, and its
// End ends span. It emits one child span per profiling stage
// (profile-run, analyze, hotness, hds-mining, then the planner's
// reconstitution, context-inference and recycling) and publishes the
// stage counters when a registry is attached. Options.Stream selects
// the spill-file recording and analysis path; the resulting Profile is
// identical either way. Sequitur runs only when Options.Demand or the
// planner reads its streams.
func collectProfile(spec workloads.Spec, opt Options, span *obs.Span) (*Profile, error) {
	name := spec.Program.Name()
	sc := opt.Perf.Begin("profile", span)
	defer sc.End()

	var (
		a       *trace.Analysis
		metrics machine.Metrics
		stats   trace.RecorderStats
		anHost  *perfstat.Sample
		err     error
	)
	if opt.Stream {
		a, metrics, stats, anHost, err = streamProfileRun(spec, opt, span)
	} else {
		a, metrics, stats, anHost = memoryProfileRun(spec, opt, span)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s streaming profile: %w", name, err)
	}
	sc.AddEvents(stats.Events)
	if a.HeapAccesses == 0 {
		return nil, fmt.Errorf("pipeline: %s profiling run produced no heap accesses", name)
	}

	hotSpan := span.Child("hotness")
	cfg := opt.Plan
	cfg.Benchmark = name
	hot := prefix.SelectHot(a, cfg)
	hotSpan.Set("hot_objects", len(hot.Objects))
	hotSpan.Set("coverage_pct", hot.CoveragePct())
	hotSpan.End()

	mineSpan := span.Child("hds-mining")
	refs := hds.CollapseRefs(a.Refs, hot.IDs)
	lcs := prefix.WeighStreams(hds.MineLCS(refs, cfg.HDS), hot)
	mineSpan.Set("refs", len(refs))
	mineSpan.Set("streams_lcs", len(lcs))
	mineSeq := opt.Demand.Has(StrategyHDS) || cfg.Miner == prefix.MinerSequitur
	var seq []hds.Stream
	if mineSeq {
		seq = prefix.WeighStreams(hds.MineSequitur(refs, cfg.HDS), hot)
		mineSpan.Set("streams_sequitur", len(seq))
	}
	mineSpan.End()

	// The planner reuses its miner's streams instead of mining again per
	// variant.
	ohds := lcs
	if cfg.Miner == prefix.MinerSequitur {
		ohds = seq
	}
	cfg.Trace = span
	prep, err := prefix.Prepare(a, hot, ohds, len(refs), cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", name, err)
	}

	if reg := opt.Metrics; reg != nil {
		kv := append([]string{"benchmark", name}, opt.Labels...)
		metrics.Publish(reg, append(kv, "run", "profile")...)
		stats.Publish(reg, kv...)
		reg.Counter("prefix_profile_trace_events_total", kv...).Add(stats.Events)
		reg.Counter("prefix_profile_heap_accesses_total", kv...).Add(a.HeapAccesses)
		reg.Gauge("prefix_profile_objects", kv...).Set(float64(len(a.Objects)))
		reg.Gauge("prefix_profile_hot_objects", kv...).Set(float64(len(hot.Objects)))
		reg.Gauge("prefix_profile_hot_coverage_pct", kv...).Set(hot.CoveragePct())
		reg.Gauge("prefix_profile_streams_lcs", kv...).Set(float64(len(lcs)))
		if mineSeq {
			reg.Gauge("prefix_profile_streams_sequitur", kv...).Set(float64(len(seq)))
		}
	}

	return &Profile{
		Analysis:        a,
		Hot:             hot,
		StreamsLCS:      lcs,
		StreamsSequitur: seq,
		Metrics:         metrics,
		Stats:           stats,
		AnalysisHost:    anHost,
		Prepared:        prep,
	}, nil
}

// memoryProfileRun is the default profiling path: the analyzer is the
// machine's recorder, so the run is analyzed while it executes and the
// trace is never kept. The analyze span closes the analysis; with a
// collector attached, the analyzer times its own feeding on the
// collector's clock, which becomes the analyze stage's host sample.
func memoryProfileRun(spec workloads.Spec, opt Options, parent *obs.Span) (*trace.Analysis, machine.Metrics, trace.RecorderStats, *perfstat.Sample) {
	runSpan := parent.Child("profile-run")
	an := trace.NewAnalyzer()
	an.SetClock(opt.Perf.Clock())
	alloc := baselines.NewBaseline(opt.Cache.Cost)
	m := machine.New(alloc, opt.Cache, machine.WithRecorder(an))
	spec.Program.Run(m, spec.Profile)
	metrics := m.Finish()
	stats := an.Stats()
	runSpan.Set("events", stats.Events)
	runSpan.End()

	anSpan := parent.Child("analyze")
	a := an.Finish()
	anSpan.Set("objects", len(a.Objects))
	anSpan.Set("heap_accesses", a.HeapAccesses)
	var host *perfstat.Sample
	if opt.Perf != nil {
		sample := opt.Perf.Record(perfstat.Sample{Phase: "analyze", WallNanos: an.FeedNanos(), Events: stats.Events})
		host = &sample
		anSpan.Set("feed_nanos", host.WallNanos)
	}
	anSpan.End()
	return a, metrics, stats, host
}

// streamProfileRun is the bounded-memory profiling path: the machine
// records through a spill-to-disk recorder into a temporary chunked
// trace file, which is then analyzed as a stream. Trace-buffer memory
// never exceeds one chunk (StreamChunkEvents events).
func streamProfileRun(spec workloads.Spec, opt Options, parent *obs.Span) (a *trace.Analysis, metrics machine.Metrics, stats trace.RecorderStats, host *perfstat.Sample, err error) {
	runSpan := parent.Child("profile-run")
	f, err := os.CreateTemp(opt.StreamDir, "prefix-spill-*.pfxt")
	if err == nil {
		defer func() {
			f.Close()
			os.Remove(f.Name())
		}()
		metrics, stats, err = spillProfileRun(spec, opt, f, runSpan)
	}
	runSpan.End()
	if err != nil {
		return nil, metrics, stats, nil, err
	}

	anSpan := parent.Child("analyze")
	sc := opt.Perf.Begin("analyze", anSpan)
	sr, err := trace.NewStreamReader(io.NewSectionReader(f, 0, math.MaxInt64))
	if err == nil {
		a, err = trace.AnalyzeSource(sr)
	}
	if err == nil {
		anSpan.Set("objects", len(a.Objects))
		anSpan.Set("heap_accesses", a.HeapAccesses)
	}
	sc.AddEvents(stats.Events)
	sample := sc.End()
	if err == nil && opt.Perf != nil {
		host = &sample
	}
	return a, metrics, stats, host, err
}

// spillProfileRun runs the profiling input recording into f through a
// spill recorder and sets the recording's figures on span.
func spillProfileRun(spec workloads.Spec, opt Options, f *os.File, span *obs.Span) (machine.Metrics, trace.RecorderStats, error) {
	rec, err := trace.NewSpillRecorder(f, opt.StreamChunkEvents)
	if err != nil {
		return machine.Metrics{}, trace.RecorderStats{}, err
	}
	m := machine.New(baselines.NewBaseline(opt.Cache.Cost), opt.Cache, machine.WithRecorder(rec))
	spec.Program.Run(m, spec.Profile)
	metrics := m.Finish()
	if err := rec.Close(); err != nil {
		return metrics, trace.RecorderStats{}, err
	}
	stats := rec.Stats()
	span.Set("events", stats.Events)
	span.Set("chunks", stats.Chunks)
	span.Set("peak_buffered_events", stats.PeakBufferedEvents)
	return metrics, stats, nil
}

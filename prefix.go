// Package prefix is a reproduction of "PreFix: Optimizing the Performance
// of Heap-Intensive Applications" (CGO 2025): profile-guided preallocation
// of hot heap objects with layout reordering, precise object-id contexts,
// and object recycling — together with the full simulation substrate the
// evaluation needs (heap allocator, cache/TLB hierarchy, tracing machine,
// HDS mining, and the HDS and HALO baselines).
//
// The package is a facade over the implementation packages:
//
//	Profile   — run a benchmark's training input and analyze its trace
//	BuildPlan — derive the preallocation plan (Figures 4–7 inputs)
//	RunBenchmark — the full Figure 8 pipeline with every strategy
//	RunMultithreaded — the §3.3 multithreading experiment
//
// The 13 synthetic benchmarks of the evaluation are registered under the
// names returned by Benchmarks(). See DESIGN.md for the architecture and
// EXPERIMENTS.md for paper-vs-measured results.
package prefix

import (
	"io"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/hotness"
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/pipeline"
	core "prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// Core optimization types.
type (
	// Plan is the product of profile analysis: the preallocated region
	// layout, per-counter id patterns, and recycling configuration.
	Plan = core.Plan
	// PlanConfig controls planning (hot selection, mining, sharing,
	// recycling, variant).
	PlanConfig = core.PlanConfig
	// Variant selects which objects a plan places (Hot / HDS / HDS+Hot).
	Variant = core.Variant
	// Allocator executes a Plan with the instrumentation semantics of
	// the paper's Figures 4–7.
	Allocator = core.Allocator
	// Capture holds runtime capture statistics (Tables 5 and 6).
	Capture = core.Capture
	// Summary is the profile-analysis byproduct (OHDS, reconstitution).
	Summary = core.Summary
)

// Pipeline types.
type (
	// Options configures an evaluation (cache geometry, plan config).
	Options = pipeline.Options
	// Comparison is a full benchmark evaluation across strategies.
	Comparison = pipeline.Comparison
	// RunResult is one strategy's run.
	RunResult = pipeline.RunResult
	// MTResult is one Figure 10 data point.
	MTResult = pipeline.MTResult
	// ProfileData is the product of a profiling run.
	ProfileData = pipeline.Profile
	// Variance summarizes a benchmark's perturbed-seed sweep.
	Variance = pipeline.Variance
)

// CacheConfig describes the simulated memory hierarchy.
type CacheConfig = cachesim.Config

// Variants.
const (
	VariantHot    = core.VariantHot
	VariantHDS    = core.VariantHDS
	VariantHDSHot = core.VariantHDSHot
)

// Benchmarks lists the registered benchmark names in the paper's order.
func Benchmarks() []string { return workloads.Names() }

// DefaultOptions returns the standard evaluation setup (scaled LLC, all
// three variants).
func DefaultOptions() Options { return pipeline.DefaultOptions() }

// PaperCacheConfig returns the §3.2 evaluation-machine geometry.
func PaperCacheConfig() CacheConfig { return cachesim.PaperConfig() }

// ScaledCacheConfig returns the reduced-LLC geometry used for fast runs.
func ScaledCacheConfig() CacheConfig { return cachesim.ScaledConfig() }

// DefaultPlanConfig returns the planning configuration used across the
// evaluation for the given benchmark and variant.
func DefaultPlanConfig(benchmark string, v Variant) PlanConfig {
	return core.DefaultPlanConfig(benchmark, v)
}

// RunBenchmark evaluates one benchmark end to end: profile, plan, and run
// under the baseline, HDS, HALO, and every PreFix variant.
func RunBenchmark(name string, opt Options) (*Comparison, error) {
	return pipeline.RunBenchmark(name, opt)
}

// RunSuite evaluates several benchmarks on a bounded worker pool of
// `jobs` workers (1 = serial). Results are indexed by position in
// names, so everything derived from them is identical at any job count.
func RunSuite(names []string, opt Options, jobs int) ([]*Comparison, error) {
	return pipeline.RunSuite(names, opt, jobs)
}

// RunVariance evaluates one benchmark across `runs` perturbed
// evaluation seeds, collecting the profile once and reusing it for
// every seed.
func RunVariance(name string, runs int, opt Options) (*Variance, error) {
	return pipeline.RunVariance(name, runs, opt)
}

// RunMultithreaded reproduces the Figure 10 experiment for a
// multithreaded benchmark (mysql, mcf).
func RunMultithreaded(name string, threads []int, opt Options) ([]MTResult, error) {
	return pipeline.RunMultithreaded(name, threads, opt)
}

// BuildPlan derives a PreFix plan from an analyzed profiling trace.
func BuildPlan(a *trace.Analysis, cfg PlanConfig) (*Plan, *Summary, error) {
	return core.BuildPlan(a, cfg)
}

// SelectHot performs hot-object selection with "all ids" promotion.
func SelectHot(a *trace.Analysis, cfg PlanConfig) *hotness.Set {
	return core.SelectHot(a, cfg)
}

// --- Writing custom programs against the simulation -------------------
//
// A program is any function driving an Env: Enter/Leave for the call
// stack, Malloc/Free/Realloc for heap operations, Read/Write for data
// accesses, Compute for non-memory work. Run it on a tracing machine to
// profile it, build a plan, then run it again on a PreFix allocator.

// Primitive identifier types for custom programs.
type (
	// Addr is a simulated virtual address.
	Addr = mem.Addr
	// SiteID identifies a static malloc site.
	SiteID = mem.SiteID
	// FuncID identifies a function for call-stack tracking.
	FuncID = mem.FuncID
)

// Env is the execution environment custom programs drive.
type Env = machine.Env

// MachineAllocator is an allocation strategy a machine can run on.
type MachineAllocator = machine.Allocator

// Metrics summarizes one run (cycles, cache counts, allocator activity).
type Metrics = machine.Metrics

// Trace and Analysis re-exports for custom profiling flows.
type (
	// Trace is a recorded event stream.
	Trace = trace.Trace
	// Analysis is the object-level reconstruction of a trace.
	Analysis = trace.Analysis
	// Recorder accumulates trace events in memory during a profiling run.
	Recorder = trace.Recorder
)

// Streaming re-exports: the bounded-memory trace architecture. A
// tracing machine hands its events to an EventRecorder in batches; the
// spill recorder keeps profiling runs within a fixed event budget by
// streaming chunks to a backing writer, and a TraceSource pulls events
// back one at a time (see DESIGN.md "Streaming trace architecture").
type (
	// TraceSource is a pull iterator over an event stream.
	TraceSource = trace.Source
	// EventRecorder is the recorder interface a tracing machine feeds:
	// batches of events plus the run's instruction count. *Recorder,
	// *SpillRecorder and *TraceAnalyzer implement it.
	EventRecorder = trace.EventRecorder
	// SpillRecorder records a profiling run within a bounded event
	// budget, spilling chunks to a backing writer.
	SpillRecorder = trace.SpillRecorder
	// TraceAnalyzer reconstructs an Analysis incrementally (Feed each
	// event, then Finish).
	TraceAnalyzer = trace.Analyzer
)

// NewRecorder returns an empty in-memory trace recorder.
func NewRecorder() *Recorder { return trace.NewRecorder() }

// NewSpillRecorder returns a bounded-memory recorder that streams
// chunks of at most chunkEvents events into w (chunkEvents < 1 selects
// the default budget). Close it before reading the stream back.
func NewSpillRecorder(w io.Writer, chunkEvents int) (*SpillRecorder, error) {
	return trace.NewSpillRecorder(w, chunkEvents)
}

// OpenTraceStream returns a pull iterator over a trace file written by
// Trace.Write or a spill recorder, decoding incrementally so the trace
// is never materialized.
func OpenTraceStream(r io.Reader) (TraceSource, error) { return trace.NewStreamReader(r) }

// Analyze reconstructs dynamic objects and the reference string from a
// recorded trace.
func Analyze(t *Trace) *Analysis { return trace.Analyze(t) }

// AnalyzeSource is Analyze over a pull iterator: single-pass and
// bounded-memory, with an identical result for the same events.
func AnalyzeSource(src TraceSource) (*Analysis, error) { return trace.AnalyzeSource(src) }

// NewBaselineAllocator returns the plain-heap strategy.
func NewBaselineAllocator(cfg CacheConfig) MachineAllocator {
	return baselines.NewBaseline(cfg.Cost)
}

// NewPreFixAllocator returns the PreFix runtime for a plan.
func NewPreFixAllocator(plan *Plan, cfg CacheConfig) *Allocator {
	return core.NewAllocator(plan, cfg.Cost)
}

// Machine couples an allocator with a simulated cache hierarchy; custom
// programs run against it as their Env.
type Machine = machine.Machine

// NewMachine builds a machine. Pass a non-nil recorder (in-memory or
// spill-to-disk) to trace the run.
func NewMachine(alloc MachineAllocator, cfg CacheConfig, rec EventRecorder) *Machine {
	if rec != nil {
		return machine.New(alloc, cfg, machine.WithRecorder(rec))
	}
	return machine.New(alloc, cfg)
}

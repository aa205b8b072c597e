package pipeline

import (
	"fmt"
	"sync"

	"prefix/internal/obs"
	"prefix/internal/workloads"
)

// Memo is one invocation's per-benchmark work, shared by the comparison
// suite, Figure 9 and the variance sweep. Each benchmark is profiled, and
// its variants placed, once, at the memo's demand (Options.Demand). Its
// comparison at the evaluation input — the suite's, Figure 9's and
// variance seed 0's, whose input is the same — is simulated once too,
// by whichever asks first, and reused by every later request it covers.
// A Memo is safe for concurrent use.
type Memo struct {
	opt     Options
	mu      sync.Mutex
	benches map[string]*benchMemo
}

// benchMemo is one benchmark's shared work.
type benchMemo struct {
	spec workloads.Spec

	prepOnce sync.Once
	prof     *Profile
	plans    variantPlans
	prepErr  error

	mu  sync.Mutex
	cmp *Comparison // the first comparison at the evaluation input
}

// NewMemo returns an empty memo for opt. Every request made of it uses
// opt's profiling, planning and simulation settings and simulates
// within opt.Demand.
func NewMemo(opt Options) *Memo {
	if len(opt.Variants) == 0 {
		opt.Variants = DefaultOptions().Variants
	}
	return &Memo{opt: opt, benches: make(map[string]*benchMemo)}
}

// bench returns the named benchmark's entry, creating it on first use.
func (m *Memo) bench(name string) (*benchMemo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.benches[name]; ok {
		return b, nil
	}
	spec, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	b := &benchMemo{spec: spec}
	m.benches[name] = b
	return b, nil
}

// prepare profiles the benchmark and places its variants (when PreFix
// is demanded) on first use, under parent; concurrent callers wait for
// the first. profiled reports whether this call did the work, so that
// its caller alone accounts the profile's events.
func (m *Memo) prepare(b *benchMemo, parent *obs.Span) (profiled bool, err error) {
	b.prepOnce.Do(func() {
		profiled = true
		name := b.spec.Program.Name()
		b.prof, b.prepErr = collectProfile(name, machineProfile(b.spec, m.opt), m.opt, parent.Child("profile"))
		if b.prepErr == nil && m.opt.Demand.Has(StrategyPreFix) {
			b.plans, b.prepErr = placeVariants(name, m.opt, b.prof, parent)
		}
	})
	return profiled, b.prepErr
}

// covers reports whether cmp already holds everything a request with
// opt reads.
func covers(cmp *Comparison, opt Options) bool {
	return cmp.Ran.Has(opt.Demand.Strategies()) && (!opt.CaptureLongRun || cmp.LongRun != nil)
}

// cached returns the benchmark's comparison at the evaluation input when
// one covering opt was already simulated.
func (b *benchMemo) cached(opt Options) *Comparison {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cmp != nil && covers(b.cmp, opt) {
		return b.cmp
	}
	return nil
}

// evaluate returns the benchmark's comparison at the evaluation input
// for a request with opt — the memo's options with the request's own
// demand, capture and labels. A kept comparison that covers the request
// is reused (reused = true); otherwise the profile comes from prepare
// (under prepParent) and the evals run now under evalParent, and the
// first comparison simulated is kept.
func (m *Memo) evaluate(b *benchMemo, opt Options, prepParent, evalParent *obs.Span) (cmp *Comparison, reused bool, err error) {
	if !m.opt.Demand.Has(opt.Demand.Strategies()) {
		return nil, false, fmt.Errorf("pipeline: %s: demand %s exceeds the memo's %s", b.spec.Program.Name(), opt.Demand, m.opt.Demand)
	}
	profiled, err := m.prepare(b, prepParent)
	if err != nil {
		return nil, false, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cmp != nil && covers(b.cmp, opt) {
		return b.cmp, true, nil
	}
	cmp, err = compareStrategies(b.spec, opt, b.prof, b.plans, evalParent)
	if err != nil {
		return nil, false, err
	}
	if profiled {
		cmp.Events += b.prof.Stats.Events
	}
	if b.cmp == nil {
		b.cmp = cmp
	}
	return cmp, false, nil
}

// benchmark is RunBenchmark on the memo: the named benchmark's
// comparison for a request with opt, simulated under a "benchmark <name>"
// root span unless a kept one covers the request (reused = true).
func (m *Memo) benchmark(name string, opt Options) (cmp *Comparison, reused bool, err error) {
	b, err := m.bench(name)
	if err != nil {
		return nil, false, err
	}
	if cmp := b.cached(opt); cmp != nil {
		return cmp, true, nil
	}
	root := opt.Tracer.Start("benchmark " + name)
	cmp, reused, err = m.evaluate(b, opt, root, root)
	root.End()
	if err != nil {
		return nil, false, err
	}
	root.ObserveDurations(opt.Metrics.Histogram("prefix_stage_seconds", obs.TimeBuckets))
	return cmp, reused, nil
}

// Comparison returns the named benchmark's comparison at the evaluation
// input with at least the strategies s simulated: the suite's when the
// suite evaluated the benchmark, otherwise one simulated now without a
// long-run capture (and kept). s must lie within the memo's demand.
func (m *Memo) Comparison(name string, s Strategies) (*Comparison, error) {
	opt := m.opt
	opt.Demand = Demanding(s)
	opt.CaptureLongRun = false
	cmp, _, err := m.benchmark(name, opt)
	return cmp, err
}

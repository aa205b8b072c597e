package pipeline

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"prefix/internal/obs"
	"prefix/internal/workloads"
)

// Variance is the seed-sweep analogue of the paper's "execution times
// ... are averaged over 10 runs": the evaluation input's seed is
// perturbed N times (different inputs of the same shape) and the
// best-variant reduction is summarized.
type Variance struct {
	Benchmark string
	Runs      int
	MeanPct   float64
	MinPct    float64 // most negative (best) observed reduction
	MaxPct    float64 // least negative (worst) observed reduction
	Deltas    []float64
}

// RunVariance evaluates one benchmark across `runs` perturbed evaluation
// seeds using a single plan from the unperturbed profile — exactly the
// deployment situation: one profile, many inputs.
func RunVariance(name string, runs int, opt Options) (*Variance, error) {
	vs, err := RunSuiteVariance([]string{name}, runs, opt, 1)
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

// RunSuiteVariance evaluates every named benchmark across `runs`
// perturbed evaluation seeds on one bounded worker pool of `jobs`
// workers (1 = the serial path). The unit of work is one
// (benchmark, seed) evaluation; the profile is collected, every
// variant's plan placed and the plans grouped by behaviour exactly once
// per benchmark — the first of its seed jobs to run does all three under
// the benchmark's "variance" root span, and the remaining seeds reuse the
// shared *Profile and plans, which compareStrategies and the allocators
// treat as read-only. Each seed simulates one PreFix eval per distinct
// plan behaviour.
// Each seed evaluation runs under its own "seed N" child span and
// publishes its metrics with a "seed" label, so N runs produce N
// distinguishable series in the export. Deltas are indexed by seed,
// never by completion order, so the summary is identical at any job
// count.
func RunSuiteVariance(names []string, runs int, opt Options, jobs int) ([]*Variance, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("pipeline: runs must be positive")
	}
	if len(opt.Variants) == 0 {
		opt.Variants = DefaultOptions().Variants
	}
	type benchState struct {
		spec    workloads.Spec
		base    workloads.Config
		once    sync.Once
		root    *obs.Span
		prof    *Profile
		plans   variantPlans
		profErr error
		pending atomic.Int64
		deltas  []float64
	}
	states := make([]*benchState, len(names))
	for i, name := range names {
		spec, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		st := &benchState{spec: spec, base: evalConfig(spec, opt), deltas: make([]float64, runs)}
		st.pending.Store(int64(runs))
		states[i] = st
	}

	// Jobs are ordered seed-major (the benchmark index varies fastest) so
	// the per-benchmark profile collections — every seed's shared
	// dependency — start in parallel instead of the whole pool blocking
	// on one benchmark's profile.
	nb := len(names)
	seedJob := func(st *benchState, name string, si int) error {
		defer func() {
			// The last seed to finish closes the benchmark's root span.
			if st.pending.Add(-1) == 0 {
				st.root.End()
			}
		}()
		st.once.Do(func() {
			st.root = opt.Tracer.Start("variance " + name)
			span := st.root.Child("profile")
			st.prof, st.profErr = collectProfile(st.spec, opt, span)
			span.End()
			if st.profErr == nil {
				st.plans, st.profErr = placeVariants(name, opt, st.prof, st.root)
			}
		})
		if st.profErr != nil {
			if si == 0 {
				return st.profErr
			}
			return nil // already reported by the benchmark's seed-0 job
		}
		cfg := st.base
		cfg.Seed = st.base.Seed + uint64(si)*1_000_003
		runSpec := st.spec
		if opt.UseBenchScale {
			runSpec.Bench = cfg
		} else {
			runSpec.Long = cfg
		}
		seedOpt := opt
		seedOpt.Labels = append(append([]string(nil), opt.Labels...), "seed", strconv.Itoa(si))
		span := st.root.Child("seed " + strconv.Itoa(si))
		sc := opt.Perf.Begin("variance").AttachSpan(span)
		// Keep the profiling input fixed: the plan must survive input
		// changes (Table 5's claim).
		cmp, err := compareStrategies(runSpec, seedOpt, st.prof, st.plans, span)
		if err == nil {
			// cmp.Events counts only this seed's evaluation runs; the
			// shared profile is accounted by its own "profile" scope.
			sc.AddEvents(cmp.Events)
		}
		sc.End()
		span.End()
		if err != nil {
			return fmt.Errorf("seed %d: %w", si, err)
		}
		st.deltas[si] = cmp.BestResult().TimeDeltaPct(cmp.Baseline)
		return nil
	}
	errs := runJobs(nb*runs, jobs, func(j int) error {
		bi, si := j%nb, j/nb
		ev := obs.JobEvent{Phase: "variance", Benchmark: names[bi], Job: j, Jobs: nb * runs, Seed: si, Seeds: runs}
		return opt.instrumentJob(ev, func() error {
			return seedJob(states[bi], names[bi], si)
		})
	})
	if err := joinErrors(errs, func(j int) string { return names[j%nb] }); err != nil {
		return nil, err
	}

	out := make([]*Variance, len(names))
	for i, st := range states {
		v := &Variance{Benchmark: names[i], Runs: runs, Deltas: st.deltas}
		for si, d := range st.deltas {
			v.MeanPct += d
			if si == 0 || d < v.MinPct {
				v.MinPct = d
			}
			if si == 0 || d > v.MaxPct {
				v.MaxPct = d
			}
		}
		v.MeanPct /= float64(runs)
		out[i] = v
	}
	return out, nil
}

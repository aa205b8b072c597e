package pipeline

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"prefix/internal/obs"
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

// varianceNeeds is what the sweep reads from each seed's comparison:
// the best PreFix run's time change against the baseline.
const varianceNeeds = StrategyBaseline | StrategyPreFix

// RunSuiteVariance evaluates every named benchmark across `runs`
// perturbed evaluation seeds on one bounded worker pool of `jobs`
// workers (1 = the serial path). Whatever opt.Demand says, each seed
// simulates only the baseline and PreFix, the two strategies the sweep
// reads; see Memo.Variance.
func RunSuiteVariance(names []string, runs int, opt Options, jobs int) ([]*Variance, error) {
	opt.Demand = Demanding(varianceNeeds)
	return NewMemo(opt).Variance(names, runs, jobs)
}

// Variance is RunSuiteVariance on the memo. The unit of work is one
// (benchmark, seed) evaluation; the profile is collected and every
// variant's plan placed once per benchmark by the memo — under the
// benchmark's "variance" root span when the sweep is the first to ask —
// and the seeds share the *Profile and plans, which compareStrategies
// and the allocators treat as read-only. Each seed simulates the
// baseline and one PreFix eval per distinct plan behaviour. Seed 0's
// input is the evaluation input itself, so its comparison is the memo's
// (the suite's, when the suite ran the benchmark: its "seed 0" span then
// carries reused_from and publishes no series of its own). Each seed
// evaluation runs under its own "seed N" child span and publishes its
// metrics with a "seed" label, so N runs produce N distinguishable series
// in the export. Deltas are indexed by seed, never by completion order,
// so the summary is identical at any job count. The memo's demand must
// include the baseline and PreFix.
func (m *Memo) Variance(names []string, runs, jobs int) ([]*Variance, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("pipeline: runs must be positive")
	}
	if !m.opt.Demand.Has(varianceNeeds) {
		return nil, fmt.Errorf("pipeline: the variance sweep needs %s, outside the memo's demand %s", varianceNeeds, m.opt.Demand)
	}
	opt := m.opt
	opt.Demand = Demanding(varianceNeeds)
	opt.CaptureLongRun = false
	type benchState struct {
		b       *benchMemo
		once    sync.Once
		root    *obs.Span
		pending atomic.Int64
		deltas  []float64
	}
	states := make([]*benchState, len(names))
	for i, name := range names {
		b, err := m.bench(name)
		if err != nil {
			return nil, err
		}
		st := &benchState{b: b, deltas: make([]float64, runs)}
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
		st.once.Do(func() { st.root = opt.Tracer.Start("variance " + name) })
		if _, err := m.prepare(st.b, st.root); err != nil {
			if si == 0 {
				return err
			}
			return nil // already reported by the benchmark's seed-0 job
		}
		seedOpt := opt
		seedOpt.Labels = append(append([]string(nil), opt.Labels...), "seed", strconv.Itoa(si))
		span := st.root.Child("seed " + strconv.Itoa(si))
		sc := opt.Perf.Begin("variance", span)
		var (
			cmp    *Comparison
			reused bool
			err    error
		)
		if si == 0 {
			cmp, reused, err = m.evaluate(st.b, seedOpt, st.root, span)
			if reused {
				span.Set("reused_from", "benchmark "+name)
			}
		} else {
			// Keep the profiling input fixed: the plan must survive input
			// changes (Table 5's claim).
			cfg := evalConfig(st.b.spec, opt)
			cfg.Seed += uint64(si) * 1_000_003
			runSpec := st.b.spec
			if opt.UseBenchScale {
				runSpec.Bench = cfg
			} else {
				runSpec.Long = cfg
			}
			cmp, err = compareStrategies(runSpec, seedOpt, st.b.prof, st.b.plans, span)
		}
		if err == nil && !reused {
			// cmp.Events counts only this seed's evaluation runs; the
			// shared profile is accounted by its own "profile" scope.
			sc.AddEvents(cmp.Events)
		}
		sc.End()
		if err == nil {
			err = cmp.Need(varianceNeeds)
		}
		if err != nil {
			return fmt.Errorf("seed %d: %w", si, err)
		}
		st.deltas[si] = cmp.BestResult().TimeDeltaPct(cmp.Baseline)
		return nil
	}
	errs := opt.runJobs(nb*runs, jobs, func(j int) obs.JobEvent {
		return obs.JobEvent{Phase: "variance", Benchmark: names[j%nb], Job: j, Jobs: nb * runs, Seed: j / nb, Seeds: runs}
	}, func(j int) error {
		return seedJob(states[j%nb], names[j%nb], j/nb)
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

package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"prefix/internal/obs"
)

// DefaultJobs is the default worker count for suite runs: one worker per
// available CPU (the evaluation is compute-bound; benchmark×seed jobs
// share nothing but the race-safe obs.Registry/Tracer).
//
//lint:ignore nodeterminism worker count only paces execution; result slots are order-indexed so output is jobs-independent
func DefaultJobs() int { return runtime.GOMAXPROCS(0) }

// runJobs executes jobs 0..n-1 on at most `jobs` concurrent workers and
// returns the per-job errors indexed by job order. Jobs are dispatched
// in index order, so jobs=1 is exactly the serial loop. Each job must
// write its result into a caller-owned slot keyed by its index — never
// by completion order — which is what keeps a parallel suite's
// aggregate output byte-identical to the serial path. A panicking job
// is recovered into its error slot rather than tearing down the run.
// With a non-nil event, job i's event(i) goes to o.Progress as running
// when the job starts and as done or failed, with the error text, when
// it finishes — a recovered panic included.
func (o Options) runJobs(n, jobs int, event func(i int) obs.JobEvent, run func(i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	if jobs < 1 {
		jobs = 1
	}
	if jobs > n {
		jobs = n
	}
	progress := o.Progress
	if event == nil {
		progress = nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				var ev obs.JobEvent
				if progress != nil {
					ev = event(i)
					ev.State = obs.JobRunning
					progress(ev)
				}
				errs[i] = runProtected(func() error { return run(i) })
				if progress != nil {
					ev.State = obs.JobDone
					if errs[i] != nil {
						ev.State, ev.Err = obs.JobFailed, errs[i].Error()
					}
					progress(ev)
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// runProtected runs one job, converting a panic into an error.
func runProtected(run func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return run()
}

// joinErrors aggregates per-job errors in job order, attaching each
// failed job's name.
func joinErrors(errs []error, name func(i int) string) error {
	var agg []error
	for i, e := range errs {
		if e != nil {
			agg = append(agg, fmt.Errorf("%s: %w", name(i), e))
		}
	}
	return errors.Join(agg...)
}

// RunSuite evaluates the named benchmarks on a bounded worker pool of
// `jobs` workers (1 = the serial path, DefaultJobs() = one per CPU).
// The returned comparisons are indexed by position in names, never by
// completion order, so everything derived from them — every table and
// figure — is byte-identical to running the benchmarks serially. The
// shared Options may carry one obs.Registry/Tracer: both are race-safe,
// every run's series is distinguished by its benchmark/run labels, and
// every benchmark gets its own root span. Per-benchmark errors are
// aggregated (in suite order) with the benchmark name attached.
func RunSuite(names []string, opt Options, jobs int) ([]*Comparison, error) {
	return NewMemo(opt).Suite(names, jobs)
}

// Suite is RunSuite on the memo: every named benchmark's comparison at
// the memo's demand, kept for Figure 9 and variance seed 0.
func (m *Memo) Suite(names []string, jobs int) ([]*Comparison, error) {
	opt := m.opt
	cmps := make([]*Comparison, len(names))
	errs := opt.runJobs(len(names), jobs, func(i int) obs.JobEvent {
		return obs.JobEvent{Phase: "suite", Benchmark: names[i], Job: i, Jobs: len(names), Seed: -1}
	}, func(i int) error {
		sc := opt.Perf.Begin("suite", nil)
		cmp, reused, err := m.benchmark(names[i], opt)
		if err == nil && !reused {
			sc.AddEvents(cmp.Events)
		}
		sample := sc.End()
		if err != nil {
			return err
		}
		if opt.Perf != nil && !reused {
			cmp.Host = &sample
		}
		cmps[i] = cmp
		return nil
	})
	if err := joinErrors(errs, func(i int) string { return names[i] }); err != nil {
		return nil, err
	}
	return cmps, nil
}

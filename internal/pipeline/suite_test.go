package pipeline

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prefix/internal/obs"
)

func TestRunJobsSerialOrder(t *testing.T) {
	var order []int
	errs := Options{}.runJobs(5, 1, nil, func(i int) error {
		order = append(order, i)
		return nil
	})
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("jobs=1 execution order = %v, want ascending", order)
	}
	for i, e := range errs {
		if e != nil {
			t.Errorf("job %d: unexpected error %v", i, e)
		}
	}
}

func TestRunJobsRunsEverything(t *testing.T) {
	var ran atomic.Int64
	Options{}.runJobs(100, 7, nil, func(i int) error {
		ran.Add(1)
		return nil
	})
	if n := ran.Load(); n != 100 {
		t.Errorf("ran %d jobs, want 100", n)
	}
}

func TestRunJobsPanicRecovered(t *testing.T) {
	errs := Options{}.runJobs(3, 2, nil, func(i int) error {
		if i == 1 {
			panic("boom")
		}
		return nil
	})
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy jobs errored: %v", errs)
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "boom") {
		t.Errorf("panic not recovered into error: %v", errs[1])
	}
}

// TestRunJobsPanicEmitsFailed: a panicking job's panic is recovered once
// into its error slot, and its failed event still fires with that text;
// without an event func no progress is emitted.
func TestRunJobsPanicEmitsFailed(t *testing.T) {
	var mu sync.Mutex
	var events []obs.JobEvent
	opt := Options{Progress: func(ev obs.JobEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}
	event := func(i int) obs.JobEvent { return obs.JobEvent{Phase: "test", Job: i, Jobs: 2, Seed: -1} }
	errs := opt.runJobs(2, 1, event, func(i int) error {
		if i == 1 {
			panic("boom")
		}
		return nil
	})
	if errs[0] != nil || errs[1] == nil || !strings.HasPrefix(errs[1].Error(), "panic: boom") {
		t.Fatalf("errs = %v, want the panic in slot 1 only", errs)
	}
	want := []obs.JobState{obs.JobRunning, obs.JobDone, obs.JobRunning, obs.JobFailed}
	if len(events) != len(want) {
		t.Fatalf("events = %+v, want %v", events, want)
	}
	for i, ev := range events {
		if ev.State != want[i] || ev.Job != i/2 {
			t.Errorf("event %d = %+v, want job %d %s", i, ev, i/2, want[i])
		}
	}
	if last := events[3]; last.Err != errs[1].Error() {
		t.Errorf("failed event Err = %q, want the job's error %q", last.Err, errs[1])
	}

	events = nil
	opt.runJobs(2, 1, nil, func(int) error { return nil })
	if len(events) != 0 {
		t.Errorf("runJobs without an event func emitted %+v", events)
	}
}

func TestJoinErrorsAttachesNames(t *testing.T) {
	errs := []error{nil, errors.New("bad"), errors.New("worse")}
	err := joinErrors(errs, func(i int) string { return fmt.Sprintf("bench%d", i) })
	if err == nil {
		t.Fatal("want aggregated error")
	}
	for _, want := range []string{"bench1: bad", "bench2: worse"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregate %q missing %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "bench0") {
		t.Errorf("aggregate %q names a healthy job", err)
	}
}

// TestRunSuiteMatchesSerial is the tentpole guarantee: a parallel suite
// run produces results identical to the serial path, slot for slot.
func TestRunSuiteMatchesSerial(t *testing.T) {
	names := []string{"swissmap", "health", "ft"}
	serial, err := RunSuite(names, fastOpt(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuite(names, fastOpt(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if serial[i].Benchmark != name || parallel[i].Benchmark != name {
			t.Fatalf("slot %d holds %q/%q, want %q (results must be job-ordered)",
				i, serial[i].Benchmark, parallel[i].Benchmark, name)
		}
		if !reflect.DeepEqual(serial[i].Baseline.Metrics, parallel[i].Baseline.Metrics) {
			t.Errorf("%s: baseline metrics differ between jobs=1 and jobs=8", name)
		}
		if serial[i].Best != parallel[i].Best {
			t.Errorf("%s: best variant differs: %v vs %v", name, serial[i].Best, parallel[i].Best)
		}
		for v, r := range serial[i].PreFix {
			if r.Metrics.Cycles != parallel[i].PreFix[v].Metrics.Cycles {
				t.Errorf("%s %v: cycles differ: %v vs %v", name, v,
					r.Metrics.Cycles, parallel[i].PreFix[v].Metrics.Cycles)
			}
		}
	}
}

// TestRunSuiteSharedObsRace drives one registry and tracer from many
// workers; `go test -race` is the assertion.
func TestRunSuiteSharedObsRace(t *testing.T) {
	opt := fastOpt()
	opt.Metrics = obs.NewRegistry()
	opt.Tracer = obs.NewTracer()
	names := []string{"swissmap", "health", "ft", "libc"}
	cmps, err := RunSuite(names, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != len(names) {
		t.Fatalf("comparisons = %d, want %d", len(cmps), len(names))
	}
	// One root span per benchmark, regardless of completion order.
	if roots := opt.Tracer.Roots(); len(roots) != len(names) {
		t.Errorf("root spans = %d, want %d", len(roots), len(names))
	}
	// Every benchmark's series must survive in the shared registry.
	for _, name := range names {
		if v := opt.Metrics.Gauge("prefix_run_cycles", "benchmark", name, "run", "baseline").Value(); v == 0 {
			t.Errorf("%s: baseline cycles missing from shared registry", name)
		}
	}
}

func TestRunSuiteAggregatesErrors(t *testing.T) {
	_, err := RunSuite([]string{"swissmap", "nope", "also-nope"}, fastOpt(), 2)
	if err == nil {
		t.Fatal("unknown benchmarks must fail the suite")
	}
	for _, want := range []string{"nope:", "also-nope:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestRunSuiteVarianceMatchesSerial(t *testing.T) {
	names := []string{"swissmap", "health"}
	serial, err := RunSuiteVariance(names, 3, fastOpt(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuiteVariance(names, 3, fastOpt(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("variance differs between jobs=1 and jobs=6:\n  serial:   %+v %+v\n  parallel: %+v %+v",
			serial[0], serial[1], parallel[0], parallel[1])
	}
}

// TestVarianceProfileOnce pins the profile-reuse fix: one "profile" span
// per benchmark no matter how many seeds run.
func TestVarianceProfileOnce(t *testing.T) {
	opt := fastOpt()
	opt.Tracer = obs.NewTracer()
	if _, err := RunVariance("swissmap", 3, opt); err != nil {
		t.Fatal(err)
	}
	roots := opt.Tracer.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	if roots[0].Name != "variance swissmap" {
		t.Errorf("root span = %q, want \"variance swissmap\"", roots[0].Name)
	}
	profiles, seeds := 0, 0
	for _, c := range roots[0].Children() {
		switch {
		case c.Name == "profile":
			profiles++
		case strings.HasPrefix(c.Name, "seed "):
			seeds++
		}
	}
	if profiles != 1 {
		t.Errorf("profile spans = %d, want exactly 1 (profile must be collected once)", profiles)
	}
	if seeds != 3 {
		t.Errorf("seed spans = %d, want 3", seeds)
	}
}

// TestVarianceSeedLabels pins the metrics fix: every seed's run series
// survives in the export under its own "seed" label.
func TestVarianceSeedLabels(t *testing.T) {
	opt := fastOpt()
	opt.Metrics = obs.NewRegistry()
	if _, err := RunVariance("swissmap", 2, opt); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{"0", "1"} {
		v := opt.Metrics.Gauge("prefix_run_cycles",
			"benchmark", "swissmap", "run", "baseline", "seed", seed).Value()
		if v == 0 {
			t.Errorf("seed %s: baseline run series missing (seed label not threaded through)", seed)
		}
	}
	// The shared profile run carries no seed label.
	if v := opt.Metrics.Gauge("prefix_run_cycles", "benchmark", "swissmap", "run", "profile").Value(); v == 0 {
		t.Error("profile run series missing")
	}
}

func TestRunMultithreadedJobsMatchesSerial(t *testing.T) {
	counts := []int{1, 2, 4}
	serial, err := RunMultithreaded("mcf", counts, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunMultithreadedJobs("mcf", counts, fastOpt(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Figure 10 series differs between serial and parallel:\n  %+v\n  %+v", serial, parallel)
	}
}

func TestProgressCallback(t *testing.T) {
	opt := fastOpt()
	var mu sync.Mutex
	var events []obs.JobEvent
	opt.Progress = func(ev obs.JobEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	names := []string{"swissmap", "health"}
	if _, err := RunSuite(names, opt, 2); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("progress events = %d (%v), want 4 (running+done per job)", len(events), events)
	}
	perJob := map[int][]obs.JobEvent{}
	for _, ev := range events {
		if ev.Phase != "suite" {
			t.Errorf("event phase = %q, want \"suite\"", ev.Phase)
		}
		if ev.Jobs != 2 || ev.Seed != -1 {
			t.Errorf("event %+v: want Jobs=2, Seed=-1", ev)
		}
		if ev.Benchmark != names[ev.Job] {
			t.Errorf("job %d carries benchmark %q, want %q", ev.Job, ev.Benchmark, names[ev.Job])
		}
		perJob[ev.Job] = append(perJob[ev.Job], ev)
	}
	for job, evs := range perJob {
		if len(evs) != 2 || evs[0].State != obs.JobRunning || evs[1].State != obs.JobDone {
			t.Errorf("job %d events = %+v, want running then done", job, evs)
		}
	}
}

// TestProgressCallbackFailure pins that a failing job emits a failed
// event carrying the error text.
func TestProgressCallbackFailure(t *testing.T) {
	opt := fastOpt()
	var mu sync.Mutex
	var failed []obs.JobEvent
	opt.Progress = func(ev obs.JobEvent) {
		mu.Lock()
		if ev.State == obs.JobFailed {
			failed = append(failed, ev)
		}
		mu.Unlock()
	}
	if _, err := RunSuite([]string{"swissmap", "nope"}, opt, 2); err == nil {
		t.Fatal("suite with unknown benchmark must fail")
	}
	if len(failed) != 1 || failed[0].Benchmark != "nope" || failed[0].Err == "" {
		t.Errorf("failed events = %+v, want one for \"nope\" with error text", failed)
	}
}

// TestVarianceProgressEvents pins the seed/job indices that make variance
// sweep progress lines distinguishable.
func TestVarianceProgressEvents(t *testing.T) {
	opt := fastOpt()
	var mu sync.Mutex
	seen := map[string]bool{}
	opt.Progress = func(ev obs.JobEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Phase != "variance" || ev.Jobs != 2 || ev.Seeds != 2 {
			t.Errorf("event %+v: want phase=variance, Jobs=2, Seeds=2", ev)
		}
		if ev.State == obs.JobRunning {
			seen[ev.String()] = true
		}
	}
	if _, err := RunVariance("swissmap", 2, opt); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Errorf("distinct running lines = %d (%v), want 2 — seed sweeps must be distinguishable", len(seen), seen)
	}
}

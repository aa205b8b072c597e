package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJobEventString(t *testing.T) {
	cases := []struct {
		name string
		ev   JobEvent
		want string
	}{
		{
			"suite running",
			JobEvent{Phase: "suite", Benchmark: "mcf", Job: 0, Jobs: 13, Seed: -1, State: JobRunning},
			"[suite 1/13] mcf running",
		},
		{
			"suite done",
			JobEvent{Phase: "suite", Benchmark: "health", Job: 4, Jobs: 13, Seed: -1, State: JobDone},
			"[suite 5/13] health done",
		},
		{
			"variance seed",
			JobEvent{Phase: "variance", Benchmark: "mcf", Job: 6, Jobs: 20, Seed: 2, Seeds: 10, State: JobRunning},
			"[variance 7/20] mcf seed 3/10 running",
		},
		{
			"seed without total",
			JobEvent{Phase: "variance", Benchmark: "mcf", Job: 0, Jobs: 2, Seed: 0, State: JobDone},
			"[variance 1/2] mcf seed 1 done",
		},
		{
			"multithreaded",
			JobEvent{Phase: "multithreaded", Benchmark: "mysql", Job: 2, Jobs: 5, Seed: -1, Threads: 4, State: JobRunning},
			"[multithreaded 3/5] mysql threads=4 running",
		},
		{
			"failed with error",
			JobEvent{Phase: "suite", Benchmark: "nope", Job: 1, Jobs: 2, Seed: -1, State: JobFailed, Err: "unknown benchmark"},
			"[suite 2/2] nope failed: unknown benchmark",
		},
		{
			"stateless",
			JobEvent{Phase: "suite", Benchmark: "mcf", Job: 0, Jobs: 1, Seed: -1},
			"[suite 1/1] mcf",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.ev.String(); got != c.want {
				t.Errorf("String() = %q, want %q", got, c.want)
			}
		})
	}
}

// manualClock is a hand-advanced time source for deterministic tracker tests.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestJobTrackerStatus(t *testing.T) {
	clock := newManualClock()
	tr := NewJobTracker()
	tr.SetClock(clock.now)

	ev := func(job int, state JobState) JobEvent {
		return JobEvent{Phase: "suite", Benchmark: "b", Job: job, Jobs: 4, Seed: -1, State: state}
	}
	tr.Observe(ev(0, JobRunning))
	tr.Observe(ev(1, JobRunning))
	clock.advance(10 * time.Second)
	tr.Observe(ev(0, JobDone))
	tr.Observe(ev(1, JobFailed))
	clock.advance(5 * time.Second)
	tr.Observe(ev(2, JobRunning))

	st := tr.Status()
	if st.Total != 4 || st.Queued != 1 || st.Running != 1 || st.Done != 1 || st.Failed != 1 {
		t.Errorf("counts = total %d queued %d running %d done %d failed %d, want 4/1/1/1/1",
			st.Total, st.Queued, st.Running, st.Done, st.Failed)
	}
	if len(st.Phases) != 1 || st.Phases[0].Phase != "suite" {
		t.Fatalf("phases = %+v, want one suite phase", st.Phases)
	}
	if st.ElapsedSeconds != 15 {
		t.Errorf("elapsed = %v, want 15", st.ElapsedSeconds)
	}
	// 2 finished over 15s -> 7.5 s/job over 2 remaining = 15s ETA.
	if st.ETASeconds != 15 {
		t.Errorf("eta = %v, want 15", st.ETASeconds)
	}
	if len(st.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3 observed", len(st.Jobs))
	}
	// Job 0 ran for the 10s between its running and done events; job 2 is
	// still running, so its elapsed tracks the clock.
	if st.Jobs[0].ElapsedSeconds != 10 {
		t.Errorf("job 0 elapsed = %v, want 10 (finished duration)", st.Jobs[0].ElapsedSeconds)
	}
	if st.Jobs[2].ElapsedSeconds != 0 {
		t.Errorf("job 2 elapsed = %v, want 0 (just started)", st.Jobs[2].ElapsedSeconds)
	}
	clock.advance(3 * time.Second)
	if got := tr.Status().Jobs[2].ElapsedSeconds; got != 3 {
		t.Errorf("job 2 elapsed after 3s = %v, want 3", got)
	}
}

func TestJobTrackerMultiplePhases(t *testing.T) {
	tr := NewJobTracker()
	tr.Observe(JobEvent{Phase: "suite", Benchmark: "a", Job: 0, Jobs: 2, Seed: -1, State: JobDone})
	tr.Observe(JobEvent{Phase: "variance", Benchmark: "a", Job: 0, Jobs: 6, Seed: 0, Seeds: 3, State: JobRunning})
	st := tr.Status()
	if len(st.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(st.Phases))
	}
	if st.Phases[0].Phase != "suite" || st.Phases[1].Phase != "variance" {
		t.Errorf("phase order = %q, %q; want suite then variance (first-observation order)",
			st.Phases[0].Phase, st.Phases[1].Phase)
	}
	if st.Total != 8 || st.Queued != 6 {
		t.Errorf("total/queued = %d/%d, want 8/6", st.Total, st.Queued)
	}
}

func TestJobTrackerNilSafe(t *testing.T) {
	var tr *JobTracker
	tr.Observe(JobEvent{Phase: "suite"}) // must not panic
	tr.SetClock(time.Now)
	if st := tr.Status(); st.Total != 0 || len(st.Jobs) != 0 {
		t.Errorf("nil tracker status = %+v, want zero", st)
	}
}

// TestJobTrackerConcurrent drives Observe and Status from many
// goroutines; `go test -race` is the assertion.
func TestJobTrackerConcurrent(t *testing.T) {
	tr := NewJobTracker()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Observe(JobEvent{Phase: "suite", Benchmark: "b", Job: g*50 + i, Jobs: 400, Seed: -1, State: JobRunning})
				tr.Observe(JobEvent{Phase: "suite", Benchmark: "b", Job: g*50 + i, Jobs: 400, Seed: -1, State: JobDone})
				_ = tr.Status()
			}
		}(g)
	}
	wg.Wait()
	if st := tr.Status(); st.Done != 400 {
		t.Errorf("done = %d, want 400", st.Done)
	}
}

// TestStatusJSON pins the /status document's field names.
func TestStatusJSON(t *testing.T) {
	tr := NewJobTracker()
	tr.Observe(JobEvent{Phase: "suite", Benchmark: "mcf", Job: 0, Jobs: 1, Seed: -1, State: JobRunning})
	raw, err := json.Marshal(tr.Status())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"phases"`, `"jobs"`, `"queued"`, `"running"`, `"elapsed_seconds"`, `"eta_seconds"`, `"benchmark":"mcf"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("status JSON missing %s: %s", key, raw)
		}
	}
}

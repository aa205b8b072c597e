package obs

import (
	"fmt"
	"strings"
)

// JobState is the lifecycle state of one parallel-harness job. A job is
// implicitly queued until its first event arrives.
type JobState string

const (
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobEvent is one structured state transition of a parallel-harness job:
// which phase of the evaluation it belongs to, which benchmark/seed/
// thread-count it evaluates, its index within the phase, and the state it
// just entered. The pipeline emits one running event when a job starts
// and one done or failed event when it finishes; the CLIs print the
// running and failed ones as stderr progress lines.
type JobEvent struct {
	// Phase names the harness phase ("suite", "variance", "multithreaded").
	Phase     string
	Benchmark string
	// Job is the 0-based job index within the phase; Jobs the phase total.
	Job  int
	Jobs int
	// Seed is the 0-based seed index for variance-sweep jobs, -1 otherwise;
	// Seeds is the per-benchmark seed count of the sweep.
	Seed  int
	Seeds int
	// Threads is the evaluated thread count for multithreaded-sweep jobs.
	Threads int
	State   JobState
	// Err carries the job's error text on a failed event.
	Err string
}

// String renders the event as one progress line, e.g.
// "[variance 7/20] mcf seed 3/10 running".
func (e JobEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s %d/%d] %s", e.Phase, e.Job+1, e.Jobs, e.Benchmark)
	if e.Seed >= 0 {
		if e.Seeds > 0 {
			fmt.Fprintf(&b, " seed %d/%d", e.Seed+1, e.Seeds)
		} else {
			fmt.Fprintf(&b, " seed %d", e.Seed+1)
		}
	}
	if e.Threads > 0 {
		fmt.Fprintf(&b, " threads=%d", e.Threads)
	}
	if e.State != "" {
		b.WriteString(" " + string(e.State))
	}
	if e.Err != "" {
		b.WriteString(": " + e.Err)
	}
	return b.String()
}

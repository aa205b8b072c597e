package obs

import "testing"

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

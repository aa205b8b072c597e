package main

import (
	"bytes"
	"testing"
	"time"

	"prefix/internal/obs/perfstat"
	"prefix/internal/pipeline"
	"prefix/internal/report"
)

// TestPerfParityAndOverhead is the perfstat overhead contract: attaching
// a host-cost collector to the smoke suite must leave the rendered
// report byte-identical, and the collector's own sampling cost must stay
// under 2% of the suite's wall time.
func TestPerfParityAndOverhead(t *testing.T) {
	names := []string{"mcf", "health"}
	run := func(pc *perfstat.Collector) (string, time.Duration) {
		opt := pipeline.DefaultOptions()
		opt.UseBenchScale = true
		opt.Perf = pc
		start := time.Now()
		cmps, err := pipeline.RunSuite(names, opt, 4)
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.Table3(&buf, cmps); err != nil {
			t.Fatal(err)
		}
		if err := report.Table5(&buf, cmps); err != nil {
			t.Fatal(err)
		}
		return buf.String(), wall
	}

	plain, _ := run(nil)
	pc := perfstat.New(nil)
	instrumented, wall := run(pc)
	if plain != instrumented {
		t.Errorf("report changed when the perfstat collector was attached:\n--- without ---\n%s\n--- with ---\n%s",
			plain, instrumented)
	}
	var events uint64
	for _, p := range pc.Snapshot().Phases {
		events += p.Events
	}
	if events == 0 {
		t.Error("collector observed no events during the instrumented run")
	}
	if ov := pc.Overhead(); ov > wall/50 {
		t.Errorf("sampler overhead %v exceeds 2%% of suite wall time %v", ov, wall)
	}
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/machine"
	"prefix/internal/pipeline"
	core "prefix/internal/prefix"
	"prefix/internal/workloads"
)

// TestRunArgErrors: a missing -bench is a usage error (exit 2); the
// other bad invocations are ordinary errors (exit 1) that name the
// problem, and all fail before any simulation.
func TestRunArgErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); !errors.Is(err, errUsage) {
		t.Errorf("no -bench: err = %v, want a usage error", err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "mcf", "-scale", "huge"}, `unknown -scale "huge"`},
		{[]string{"-bench", "mcf", "-jobs", "0"}, "-jobs must be at least 1 (got 0)"},
		{[]string{"-bench", "mcf,health", "-plan", "p.json"}, `-plan runs a single benchmark; got 2 in -bench "mcf,health"`},
		{[]string{"-bench", "mcf", "-plan", "p.json", "-attrib"}, "-attrib applies to the strategy comparison, not -plan runs"},
	} {
		stdout.Reset()
		err := run(tc.args, &stdout, &stderr)
		if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want an ordinary error containing %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout before failing", tc.args, stdout.String())
		}
	}
}

// TestRunSavedPlan round-trips a plan through its JSON file: -plan runs
// the baseline and the saved plan on the bench-scale evaluation input,
// and its rows carry what simulating them directly gives.
func TestRunSavedPlan(t *testing.T) {
	spec, err := workloads.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	prof, err := pipeline.CollectProfile(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := prof.Prepared.Place(core.VariantHot, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mcf.plan.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bench", "mcf", "-scale", "bench", "-plan", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		fields := strings.Fields(line)
		rows[fields[0]] = fields[1:]
	}

	simulate := func(alloc machine.Allocator) machine.Metrics {
		m := machine.New(alloc, opt.Cache)
		spec.Program.Run(m, spec.Bench)
		return m.Finish()
	}
	base := simulate(baselines.NewBaseline(opt.Cache.Cost))
	alloc := core.NewAllocator(plan, opt.Cache.Cost)
	pm := simulate(alloc)
	c := alloc.Capture()
	for _, tc := range []struct {
		row  string
		want []string
	}{
		{"baseline", []string{fmt.Sprintf("%.4g", base.Cycles)}},
		{plan.Variant.String(), []string{fmt.Sprintf("%.4g", pm.Cycles), fmt.Sprintf("%+.2f%%", 100*(pm.Cycles-base.Cycles)/base.Cycles)}},
		{"capture", []string{
			fmt.Sprintf("avoided=%d", c.MallocsAvoided), fmt.Sprintf("fallback=%d", c.FallbackMallocs),
			fmt.Sprintf("static=%d", c.StaticCaptured), fmt.Sprintf("recycled=%d", c.RecycledCaptured),
		}},
	} {
		got, ok := rows[tc.row]
		if !ok || len(got) < len(tc.want) {
			t.Errorf("row %q = %v, want it to start %v (output:\n%s)", tc.row, got, tc.want, stdout.String())
			continue
		}
		for i, w := range tc.want {
			if got[i] != w {
				t.Errorf("row %q field %d = %q, want %q", tc.row, i+1, got[i], w)
			}
		}
	}
	if c.MallocsAvoided == 0 {
		t.Error("the saved plan captured nothing; the round trip checks no placement")
	}
}

package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prefix/internal/benchstore"
)

// snapshot writes one BENCH_*.json into dir with the given timestamp,
// events/sec, and LLC miss rate for a single "mcf" benchmark.
func snapshot(t *testing.T, dir string, ts time.Time, eps, llcPct float64, host bool) {
	t.Helper()
	b := benchstore.Benchmark{
		Name:           "mcf",
		BaselineCycles: 1000,
		BestVariant:    "prefix:hot",
		BestCycles:     900,
		TimeDeltaPct:   -10,
		L1MissPct:      40,
		LLCMissPct:     llcPct,
	}
	if host {
		b.Host = &benchstore.HostStats{WallNanos: 1e9, Events: uint64(eps), EventsPerSec: eps}
		b.Analysis = &benchstore.AnalysisStats{WallNanos: 1e8, Events: uint64(eps), EventsPerSec: 10 * eps}
	}
	run := &benchstore.Run{
		Schema:     benchstore.Schema,
		Timestamp:  ts.UTC().Format(time.RFC3339),
		GitSHA:     "abcdef0123456789",
		GOOS:       "linux",
		GOARCH:     "amd64",
		Jobs:       4,
		Scale:      "bench",
		Benchmarks: []benchstore.Benchmark{b},
	}
	path := filepath.Join(dir, benchstore.Filename(ts))
	if err := run.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestTrajectory(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	snapshot(t, dir, base, 500000, 4.0, true)
	snapshot(t, dir, base.Add(24*time.Hour), 600000, 3.5, true)
	snapshot(t, dir, base.Add(48*time.Hour), 750000, 3.0, true)

	var out bytes.Buffer
	if err := run([]string{"-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"3 snapshots",
		"mcf:",
		"events/sec",
		"analysis ev/s",
		"500000",
		"750000",
		"7500000",
		"trend over 3 runs: events/sec +50.0%",
		"LLC miss -1.000pp",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Oldest row must print before newest regardless of glob order.
	if strings.Index(text, "500000") > strings.Index(text, "750000") {
		t.Errorf("rows not in timestamp order:\n%s", text)
	}
}

func TestTrajectoryNoHost(t *testing.T) {
	// A schema-1-style snapshot without a host section renders n/a and
	// the events/sec trend degrades gracefully.
	dir := t.TempDir()
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	snapshot(t, dir, base, 0, 4.0, false)
	snapshot(t, dir, base.Add(time.Hour), 600000, 3.5, true)

	var out bytes.Buffer
	if err := run([]string{"-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "n/a") {
		t.Errorf("hostless snapshot should render n/a events/sec:\n%s", text)
	}
	if !strings.Contains(text, "events/sec n/a") {
		t.Errorf("trend with a hostless endpoint should be n/a:\n%s", text)
	}
	// The analysis column degrades the same way on snapshots that
	// predate the schema-4 analysis section: the hostless row renders
	// n/a in both throughput columns.
	hostlessRow := ""
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "2026-08-01T12:00:00Z") {
			hostlessRow = line
		}
	}
	if strings.Count(hostlessRow, "n/a") != 2 {
		t.Errorf("hostless row should render n/a events/sec and n/a analysis ev/s:\n%s", text)
	}
}

func TestTrajectoryErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dir", t.TempDir()}, &out); err == nil {
		t.Error("empty dir should error")
	}
	if err := run([]string{"-nope"}, &out); !errors.Is(err, errUsage) {
		t.Errorf("bad flag = %v, want usage error", err)
	}

	dir := t.TempDir()
	snapshot(t, dir, time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC), 500000, 4.0, true)
	if err := run([]string{"-dir", dir, "-bench", "nope"}, &out); err == nil {
		t.Error("unknown -bench should error")
	}
}

func TestTrajectoryCommittedSnapshots(t *testing.T) {
	// The repo-root snapshots this tool exists for must always load.
	var out bytes.Buffer
	if err := run([]string{"-dir", "../.."}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mcf:") {
		t.Errorf("committed snapshots missing mcf:\n%s", out.String())
	}
}

package benchstore

import (
	"bytes"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/obs/perfstat"
	"prefix/internal/pipeline"
	"prefix/internal/prefix"
)

func sampleRun() *Run {
	return &Run{
		Schema:    Schema,
		Timestamp: "2026-08-05T12:00:00Z",
		GitSHA:    "abc123def456",
		GOOS:      "linux",
		GOARCH:    "amd64",
		Jobs:      8,
		Scale:     "bench",
		Benchmarks: []Benchmark{
			{
				Name: "mcf", BaselineCycles: 1000, BestVariant: "hds+hot",
				BestCycles: 900, TimeDeltaPct: -10, L1MissPct: 5, LLCMissPct: 0.5,
				HDSSpurious: 12, HALOSpurious: 3, CapturePct: 95, PeakBytes: 1 << 20,
				Host: &HostStats{
					WallNanos: 2_000_000_000, Events: 500_000_000, EventsPerSec: 250e6,
					Allocs: 1_000_000, AllocBytes: 64 << 20, GCPauseNanos: 3_000_000, Goroutines: 8,
				},
			},
			{
				Name: "health", BaselineCycles: 500, BestVariant: "hot",
				BestCycles: 480, TimeDeltaPct: -4, L1MissPct: 2, LLCMissPct: 0.1,
				CapturePct: 80, PeakBytes: 1 << 18,
				Host: &HostStats{
					WallNanos: 500_000_000, Events: 100_000_000, EventsPerSec: 200e6,
					Allocs: 200_000, AllocBytes: 8 << 20, GCPauseNanos: 1_000_000, Goroutines: 8,
				},
			},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	run := sampleRun()
	var buf bytes.Buffer
	if err := run.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run, got) {
		t.Errorf("round trip mismatch:\n  wrote %+v\n  read  %+v", run, got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	run := sampleRun()
	if err := run.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run, got) {
		t.Error("file round trip mismatch")
	}
}

func TestReadRejectsSchema(t *testing.T) {
	in := strings.NewReader(`{"schema": 99, "benchmarks": []}`)
	if _, err := Read(in); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("Read(schema 99) = %v, want unsupported-schema error", err)
	}
	in = strings.NewReader(`{"schema": 0, "benchmarks": []}`)
	if _, err := Read(in); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("Read(schema 0) = %v, want unsupported-schema error", err)
	}
}

// TestReadV1Compat: a schema-1 baseline (recorded before the host
// section existed) must still load, with nil Host sections.
func TestReadV1Compat(t *testing.T) {
	in := strings.NewReader(`{
		"schema": 1,
		"timestamp": "2026-08-01T00:00:00Z",
		"goos": "linux", "goarch": "amd64", "jobs": 4, "scale": "bench",
		"benchmarks": [
			{"name": "mcf", "baseline_cycles": 1000, "best_variant": "hot",
			 "best_cycles": 900, "time_delta_pct": -10, "l1_miss_pct": 5,
			 "llc_miss_pct": 0.5, "hds_spurious": 12, "halo_spurious": 3,
			 "capture_pct": 95, "peak_bytes": 1048576}
		]
	}`)
	run, err := Read(in)
	if err != nil {
		t.Fatalf("Read(v1 doc) = %v, want success", err)
	}
	if run.Schema != 1 || len(run.Benchmarks) != 1 {
		t.Fatalf("v1 doc = schema %d, %d benchmarks", run.Schema, len(run.Benchmarks))
	}
	if run.Benchmarks[0].Host != nil {
		t.Errorf("v1 benchmark Host = %+v, want nil", run.Benchmarks[0].Host)
	}
	// And a v1 baseline gates a v2 run without spurious events_per_sec
	// verdicts: the run's higher throughput is an improvement.
	if regs := Compare(run, sampleRun(), 5); len(regs) != 1 || !regs[0].New || regs[0].Benchmark != "health" {
		t.Errorf("v1-baseline Compare = %+v, want only health flagged New", regs)
	}
}

// TestReadRejectsBenchmarkList: a document whose benchmark list is
// missing, empty, or has null, unnamed, or repeated entries does not
// load — as a baseline it would gate nothing or gate ambiguously.
func TestReadRejectsBenchmarkList(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"missing", `{"schema": 4}`, "no benchmarks"},
		{"null", `{"schema": 4, "benchmarks": null}`, "no benchmarks"},
		{"empty", `{"schema": 4, "benchmarks": []}`, "no benchmarks"},
		{"null entry", `{"schema": 4, "benchmarks": [null]}`, "benchmarks[0] has no name"},
		{"unnamed entry", `{"schema": 4, "benchmarks": [{"name": "mcf"}, {"baseline_cycles": 1}]}`, "benchmarks[1] has no name"},
		{"empty name", `{"schema": 1, "benchmarks": [{"name": ""}]}`, "benchmarks[0] has no name"},
		{"duplicate", `{"schema": 4, "benchmarks": [{"name": "mcf"}, {"name": "health"}, {"name": "mcf"}]}`, `"mcf" listed twice`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run, err := Read(strings.NewReader(c.doc))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Read(%s) = %+v, %v; want error containing %q", c.doc, run, err, c.want)
			}
		})
	}
}

// TestReadCommittedSnapshots: every snapshot committed at the repo root
// and the bench-gate baseline load, and each gates against itself clean.
func TestReadCommittedSnapshots(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json snapshots found")
	}
	paths = append(paths, filepath.Join("..", "..", "testdata", "bench-smoke-baseline.json"))
	for _, path := range paths {
		run, err := ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if err := Gate(io.Discard, run, run, 5); err != nil {
			t.Errorf("%s gated against itself: %v", path, err)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("Read(garbage) = nil, want error")
	}
}

func TestFilename(t *testing.T) {
	at := time.Date(2026, 8, 5, 14, 30, 9, 0, time.FixedZone("x", 3600))
	if got, want := Filename(at), "BENCH_20260805T133009Z.json"; got != want {
		t.Errorf("Filename = %q, want %q (UTC-normalized)", got, want)
	}
}

func TestGitSHA(t *testing.T) {
	// The repo root is two levels up; a real git checkout yields a SHA,
	// marked dirty while tracked files are modified.
	if sha := GitSHA("../.."); sha == "" {
		t.Skip("not a git checkout")
	} else if len(strings.TrimSuffix(sha, "-dirty")) != 12 {
		t.Errorf("GitSHA = %q, want 12 hex chars and an optional -dirty", sha)
	}
	if sha := GitSHA(t.TempDir()); sha != "" {
		t.Errorf("GitSHA(non-repo) = %q, want empty", sha)
	}
}

// TestGitSHADirty: in a fresh repository, a clean checkout and one with
// only untracked files yield the bare short SHA; modifying or staging a
// change to a tracked file appends -dirty.
func TestGitSHADirty(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	run := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com",
			"-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run("init", "-q")
	write("a.txt", "one\n")
	run("add", "a.txt")
	run("commit", "-q", "-m", "init")

	clean := GitSHA(dir)
	if len(clean) != 12 || strings.Contains(clean, "-") {
		t.Fatalf("clean checkout: GitSHA = %q, want 12 hex chars", clean)
	}
	write("untracked.txt", "x\n")
	if got := GitSHA(dir); got != clean {
		t.Errorf("untracked file only: GitSHA = %q, want %q", got, clean)
	}
	write("a.txt", "two\n")
	if got := GitSHA(dir); got != clean+"-dirty" {
		t.Errorf("modified tracked file: GitSHA = %q, want %q", got, clean+"-dirty")
	}
	run("add", "a.txt")
	if got := GitSHA(dir); got != clean+"-dirty" {
		t.Errorf("staged change: GitSHA = %q, want %q", got, clean+"-dirty")
	}
	run("commit", "-q", "-m", "two")
	if got := GitSHA(dir); len(got) != 12 || got == clean {
		t.Errorf("after commit: GitSHA = %q, want a new clean SHA", got)
	}
}

// TestReadRejectsOutOfRangeMetrics: a metric no run can produce fails
// the load, naming the benchmark and the metric; the edges of each range
// load.
func TestReadRejectsOutOfRangeMetrics(t *testing.T) {
	doc := func(fields string) string {
		return `{"schema": 4, "benchmarks": [{"name": "mcf", ` + fields + `}]}`
	}
	cases := []struct {
		name, fields, want string
	}{
		{"negative baseline cycles", `"baseline_cycles": -1`, "baseline_cycles"},
		{"negative best cycles", `"best_cycles": -0.5`, "best_cycles"},
		{"negative l1 miss", `"l1_miss_pct": -1`, "l1_miss_pct"},
		{"negative llc miss", `"llc_miss_pct": -0.01`, "llc_miss_pct"},
		{"negative capture", `"capture_pct": -1`, "capture_pct"},
		{"capture above 100", `"capture_pct": 100.5`, "capture_pct"},
		{"time delta below -100", `"time_delta_pct": -100.1`, "time_delta_pct"},
		{"negative host wall", `"host": {"wall_nanos": -1}`, "host.wall_nanos"},
		{"negative host events/sec", `"host": {"events_per_sec": -3}`, "host.events_per_sec"},
		{"negative host goroutines", `"host": {"goroutines": -2}`, "host.goroutines"},
		{"negative analysis wall", `"analysis": {"wall_nanos": -1}`, "analysis.wall_nanos"},
		{"negative analysis events/sec", `"analysis": {"events_per_sec": -1}`, "analysis.events_per_sec"},
		{"negative top-site share", `"attrib": {"top_site_llc_pct": -1}`, "attrib.top_site_llc_pct"},
		{"top-site share above 100", `"attrib": {"top_site_llc_pct": 101}`, "attrib.top_site_llc_pct"},
		{"negative unattributed share", `"attrib": {"unattributed_llc_pct": -1}`, "attrib.unattributed_llc_pct"},
		{"unattributed share above 100", `"attrib": {"unattributed_llc_pct": 250}`, "attrib.unattributed_llc_pct"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run, err := Read(strings.NewReader(doc(c.fields)))
			if err == nil || !strings.Contains(err.Error(), `"mcf"`) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Read(%s) = %+v, %v; want an error naming mcf and %s", c.fields, run, err, c.want)
			}
		})
	}
	// The edges of every range load; miss rates above 100% are real
	// (straddling accesses miss on two lines).
	edges := `"baseline_cycles": 0, "best_cycles": 0, "time_delta_pct": -100, "l1_miss_pct": 150,
		"llc_miss_pct": 120, "capture_pct": 100,
		"host": {"wall_nanos": 0, "events_per_sec": 0, "goroutines": 0},
		"analysis": {"wall_nanos": 0, "events_per_sec": 0},
		"attrib": {"top_site_llc_pct": 100, "unattributed_llc_pct": 0}`
	if _, err := Read(strings.NewReader(doc(edges))); err != nil {
		t.Errorf("range edges rejected: %v", err)
	}
}

func TestFromComparisons(t *testing.T) {
	cmp := &pipeline.Comparison{
		Benchmark: "mcf",
		Baseline:  result(1000, 100, 5, 1, 0),
		HDS:       withPollution(result(980, 100, 5, 1, 0), 50, 30),
		HALO:      withPollution(result(970, 100, 5, 1, 0), 40, 36),
		PreFix: map[prefix.Variant]pipeline.RunResult{
			prefix.VariantHDSHot: withCapture(result(900, 100, 4, 1, 1<<20), 90, 10),
		},
		Best: prefix.VariantHDSHot,
		Host: &perfstat.Sample{
			Phase: "suite", WallNanos: 1_000_000_000, Events: 250_000_000,
			Allocs: 42, AllocBytes: 4096, GCPauseNanos: 777, Goroutines: 6,
		},
	}
	meta := Meta{
		Timestamp: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		GitSHA:    "deadbeef0000",
		Jobs:      4,
		Scale:     "bench",
	}
	run := snapshot(t, cmp, meta)
	if run.Schema != Schema || run.Timestamp != "2026-08-05T12:00:00Z" ||
		run.GitSHA != "deadbeef0000" || run.Jobs != 4 || run.Scale != "bench" {
		t.Errorf("run metadata = %+v", run)
	}
	if len(run.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %d, want 1", len(run.Benchmarks))
	}
	b := run.Benchmarks[0]
	if b.Name != "mcf" || b.BaselineCycles != 1000 || b.BestVariant != "prefix:hds+hot" || b.BestCycles != 900 {
		t.Errorf("headline fields = %+v", b)
	}
	if b.TimeDeltaPct != -10 {
		t.Errorf("TimeDeltaPct = %v, want -10", b.TimeDeltaPct)
	}
	if b.L1MissPct != 4 || b.LLCMissPct != 1 {
		t.Errorf("miss rates = %v/%v, want 4/1", b.L1MissPct, b.LLCMissPct)
	}
	if b.HDSSpurious != 20 || b.HALOSpurious != 4 {
		t.Errorf("spurious = %d/%d, want 20/4", b.HDSSpurious, b.HALOSpurious)
	}
	if b.CapturePct != 90 {
		t.Errorf("CapturePct = %v, want 90", b.CapturePct)
	}
	if b.PeakBytes != 1<<20 {
		t.Errorf("PeakBytes = %d, want %d", b.PeakBytes, 1<<20)
	}
	if b.Host == nil {
		t.Fatal("Host section missing from snapshot")
	}
	want := HostStats{
		WallNanos: 1_000_000_000, Events: 250_000_000, EventsPerSec: 250e6,
		Allocs: 42, AllocBytes: 4096, GCPauseNanos: 777, Goroutines: 6,
	}
	if *b.Host != want {
		t.Errorf("Host = %+v, want %+v", *b.Host, want)
	}
}

// snapshot is FromComparisons of one comparison that must succeed.
func snapshot(t *testing.T, cmp *pipeline.Comparison, meta Meta) *Run {
	t.Helper()
	run, err := FromComparisons([]*pipeline.Comparison{cmp}, meta)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestFromComparisonsNeedsEveryStrategy: a snapshot reads every
// strategy, so a comparison that left one out is an error rather than a
// row of zero pollution or cycles.
func TestFromComparisonsNeedsEveryStrategy(t *testing.T) {
	for _, s := range []pipeline.Strategies{pipeline.StrategyBaseline, pipeline.StrategyHDS, pipeline.StrategyHALO, pipeline.StrategyPreFix} {
		cmp := &pipeline.Comparison{
			Benchmark: "mcf",
			Ran:       pipeline.Demanding(pipeline.AllStrategies &^ s),
			Baseline:  result(1000, 100, 5, 1, 0),
			PreFix: map[prefix.Variant]pipeline.RunResult{
				prefix.VariantHot: result(900, 100, 4, 1, 1<<20),
			},
			Best: prefix.VariantHot,
		}
		run, err := FromComparisons([]*pipeline.Comparison{cmp}, Meta{Timestamp: time.Unix(0, 0)})
		if err == nil || !strings.Contains(err.Error(), s.String()+" not simulated") {
			t.Errorf("without %s: FromComparisons = %v, %v; want a %q error", s, run, err, s.String()+" not simulated")
		}
	}
}

// TestFromComparisonsNoHost: a run recorded without a perfstat collector
// omits the host section rather than writing zeros.
func TestFromComparisonsNoHost(t *testing.T) {
	cmp := &pipeline.Comparison{
		Benchmark: "mcf",
		Baseline:  result(1000, 100, 5, 1, 0),
		PreFix: map[prefix.Variant]pipeline.RunResult{
			prefix.VariantHot: result(900, 100, 4, 1, 1<<20),
		},
		Best: prefix.VariantHot,
	}
	run := snapshot(t, cmp, Meta{Timestamp: time.Unix(0, 0)})
	if run.Benchmarks[0].Host != nil {
		t.Errorf("Host = %+v, want nil without a collector", run.Benchmarks[0].Host)
	}
}

// result fabricates a RunResult with the given cycles, accesses, and
// L1/LLC miss counts.
func result(cycles float64, accesses, l1, llc, peak uint64) pipeline.RunResult {
	return pipeline.RunResult{
		Metrics: machine.Metrics{
			Cycles: cycles,
			Cache:  cachesim.Counts{Accesses: accesses, L1Misses: l1, LLCMisses: llc},
		},
		PeakBytes: peak,
	}
}

func withPollution(r pipeline.RunResult, all, hot uint64) pipeline.RunResult {
	r.Pollution = &baselines.Pollution{All: all, Hot: hot}
	return r
}

func withCapture(r pipeline.RunResult, avoided, fallback uint64) pipeline.RunResult {
	r.Capture = &prefix.Capture{MallocsAvoided: avoided, FallbackMallocs: fallback}
	return r
}

func TestCompare(t *testing.T) {
	base := sampleRun()
	cases := []struct {
		name   string
		mutate func(*Run)
		pct    float64
		want   []string // "benchmark metric" per expected regression, in order
	}{
		{"identical", func(r *Run) {}, 5, nil},
		{
			"cycles regress past threshold",
			func(r *Run) { r.Benchmarks[0].BestCycles = 1000 }, // +11.1%
			5,
			[]string{"mcf best_cycles"},
		},
		{
			"cycles regress under threshold",
			func(r *Run) { r.Benchmarks[0].BestCycles = 930 }, // +3.3%
			5,
			nil,
		},
		{
			"improvement never gates",
			func(r *Run) {
				r.Benchmarks[0].BestCycles = 1
				r.Benchmarks[0].CapturePct = 99.9
			},
			0,
			nil,
		},
		{
			"capture precision drop (lower is worse)",
			func(r *Run) { r.Benchmarks[0].CapturePct = 50 }, // -47%
			5,
			[]string{"mcf capture_pct"},
		},
		{
			"zero baseline to nonzero is infinite",
			func(r *Run) { r.Benchmarks[1].HDSSpurious = 1 }, // health: 0 -> 1
			1000,
			[]string{"health hds_spurious"},
		},
		{
			"missing benchmark",
			func(r *Run) { r.Benchmarks = r.Benchmarks[:1] }, // drop health
			5,
			[]string{"health (missing)"},
		},
		{
			"added benchmark reported as new, never as a regression",
			func(r *Run) {
				r.Benchmarks = append(r.Benchmarks, Benchmark{Name: "extra", BestCycles: 1e9})
			},
			5,
			[]string{"extra (new)"},
		},
		{
			"events/sec regression past slack threshold",
			// -80% throughput: past 20% * 1.5x slack = 30%.
			func(r *Run) { r.Benchmarks[0].Host.EventsPerSec = 50e6 },
			20,
			[]string{"mcf events_per_sec"},
		},
		{
			"events/sec drop inside slack headroom",
			// -25% throughput: machine variance headroom, under the 30%
			// effective threshold even though 25 > 20.
			func(r *Run) { r.Benchmarks[0].Host.EventsPerSec = 187.5e6 },
			20,
			nil,
		},
		{
			"events/sec improvement never gates",
			func(r *Run) { r.Benchmarks[0].Host.EventsPerSec = 900e6 },
			0,
			nil,
		},
		{
			"host section lost from run gates at full drop",
			// A v2 baseline with host stats vs a run that lost them reads
			// as a 100% throughput drop — past every slacked threshold.
			func(r *Run) { r.Benchmarks[0].Host = nil; r.Benchmarks[1].Host = nil },
			20,
			[]string{"health events_per_sec", "mcf events_per_sec"},
		},
		{
			"multiple regressions ordered by benchmark then metric",
			func(r *Run) {
				r.Benchmarks[0].BaselineCycles = 2000
				r.Benchmarks[0].PeakBytes = 1 << 30
				r.Benchmarks[1].L1MissPct = 50
			},
			5,
			[]string{"health l1_miss_pct", "mcf baseline_cycles", "mcf peak_bytes"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cur := sampleRun()
			c.mutate(cur)
			regs := Compare(base, cur, c.pct)
			var got []string
			for _, r := range regs {
				switch {
				case r.Missing:
					got = append(got, r.Benchmark+" (missing)")
				case r.New:
					got = append(got, r.Benchmark+" (new)")
				default:
					got = append(got, r.Benchmark+" "+r.Metric)
				}
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("Compare = %v, want %v", got, c.want)
			}
		})
	}
}

func TestDegradation(t *testing.T) {
	cases := []struct {
		base, cur   float64
		higherWorse bool
		wantPct     float64
		wantWorse   bool
	}{
		{100, 110, true, 10, true},
		{100, 90, true, 0, false},
		{100, 90, false, 10, true},
		{100, 110, false, 0, false},
		{0, 5, true, math.Inf(1), true},
		{0, 0, true, 0, false},
		// NaN marks an optional section absent on one side: always skip.
		{math.NaN(), 100, true, 0, false},
		{100, math.NaN(), true, 0, false},
		{math.NaN(), math.NaN(), true, 0, false},
	}
	for _, c := range cases {
		pct, worse := degradation(c.base, c.cur, c.higherWorse)
		if pct != c.wantPct || worse != c.wantWorse {
			t.Errorf("degradation(%v, %v, %v) = %v, %v; want %v, %v",
				c.base, c.cur, c.higherWorse, pct, worse, c.wantPct, c.wantWorse)
		}
	}
}

// TestGateRegressed is the acceptance check: a doctored regressed run
// must fail the gate with an error naming the benchmark and metric.
func TestGateRegressed(t *testing.T) {
	base := sampleRun()
	cur := sampleRun()
	cur.Benchmarks[0].BestCycles = 2000 // mcf +122%
	var out bytes.Buffer
	err := Gate(&out, base, cur, 5)
	if err == nil {
		t.Fatal("Gate = nil, want regression error")
	}
	for _, want := range []string{"mcf", "best_cycles"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error %q does not name %q", err, want)
		}
	}
	if !strings.Contains(out.String(), "REGRESSED") ||
		!strings.Contains(out.String(), "mcf: best_cycles 900 -> 2000") {
		t.Errorf("gate output missing verdict line:\n%s", out.String())
	}
}

func TestGateClean(t *testing.T) {
	var out bytes.Buffer
	if err := Gate(&out, sampleRun(), sampleRun(), 5); err != nil {
		t.Fatalf("Gate(identical) = %v, want nil", err)
	}
	if !strings.Contains(out.String(), "ok: no tracked metric regressed") {
		t.Errorf("clean gate output missing ok line:\n%s", out.String())
	}
}

// TestGateEventsPerSecRegression is the acceptance demonstration for the
// CI smoke gate: a seeded events/sec collapse fails Gate with an error
// naming the benchmark and the throughput metric.
func TestGateEventsPerSecRegression(t *testing.T) {
	base := sampleRun()
	cur := sampleRun()
	cur.Benchmarks[0].Host.EventsPerSec = 10e6 // mcf 250M/s -> 10M/s
	cur.Benchmarks[0].Host.WallNanos = 50_000_000_000
	var out bytes.Buffer
	err := Gate(&out, base, cur, 50)
	if err == nil {
		t.Fatal("Gate(seeded events/sec regression) = nil, want error")
	}
	for _, want := range []string{"mcf", "events_per_sec"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error %q does not name %q", err, want)
		}
	}
	if !strings.Contains(out.String(), "REGRESSED  mcf: events_per_sec") {
		t.Errorf("gate output missing events_per_sec verdict:\n%s", out.String())
	}
}

// withAttrib attaches a schema-3 attribution section to a run's first
// benchmark.
func withAttrib(r *Run, topPct, unattribPct float64) *Run {
	r.Benchmarks[0].Attrib = &AttribStats{
		Sites: 5, TopSite: 3, TopSiteLLCPct: topPct, UnattributedLLCPct: unattribPct,
	}
	return r
}

// TestAttribRoundTrip: the schema-3 attribution section survives the
// write/read cycle.
func TestAttribRoundTrip(t *testing.T) {
	run := withAttrib(sampleRun(), 40, 2)
	var buf bytes.Buffer
	if err := run.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run, got) {
		t.Error("attrib section lost in round trip")
	}
}

// TestAttribGating: the attrib_* metrics gate only between two attributed
// documents — an unattributed side (older baseline, or a run without
// -attrib) skips them instead of reading as zero.
func TestAttribGating(t *testing.T) {
	cases := []struct {
		name      string
		base, cur *Run
		want      []string
	}{
		{"both unattributed skips", sampleRun(), sampleRun(), nil},
		{"unattributed baseline skips", sampleRun(), withAttrib(sampleRun(), 90, 50), nil},
		{"unattributed run skips", withAttrib(sampleRun(), 40, 2), sampleRun(), nil},
		{
			"attributed regression gates",
			withAttrib(sampleRun(), 40, 2),
			withAttrib(sampleRun(), 60, 2), // top-site share +50%
			[]string{"mcf attrib_top_site_llc_pct"},
		},
		{
			"unattributed-share regression gates",
			withAttrib(sampleRun(), 40, 10),
			withAttrib(sampleRun(), 40, 20), // +100%
			[]string{"mcf attrib_unattributed_llc_pct"},
		},
		{
			"attributed improvement never gates",
			withAttrib(sampleRun(), 40, 10),
			withAttrib(sampleRun(), 10, 1),
			nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			regs := Compare(c.base, c.cur, 5)
			var got []string
			for _, r := range regs {
				got = append(got, r.Benchmark+" "+r.Metric)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("Compare = %v, want %v", got, c.want)
			}
		})
	}
}

// TestFromComparisonsAttrib: an attributed comparison snapshots the
// attribution summary; an unattributed one omits the section.
func TestFromComparisonsAttrib(t *testing.T) {
	best := result(900, 100, 4, 1, 1<<20)
	best.Attrib = machine.AttribCounts{
		Enabled: true,
		Sites: []machine.SiteAttrib{
			{Site: 0, Counts: cachesim.Counts{Accesses: 10, LLCMisses: 5}},
			{Site: 3, Counts: cachesim.Counts{Accesses: 50, LLCMisses: 60}},
			{Site: 7, Counts: cachesim.Counts{Accesses: 40, LLCMisses: 35}},
		},
	}
	cmp := &pipeline.Comparison{
		Benchmark: "mcf",
		Baseline:  result(1000, 100, 5, 1, 0),
		PreFix:    map[prefix.Variant]pipeline.RunResult{prefix.VariantHot: best},
		Best:      prefix.VariantHot,
	}
	run := snapshot(t, cmp, Meta{Timestamp: time.Unix(0, 0)})
	a := run.Benchmarks[0].Attrib
	if a == nil {
		t.Fatal("attributed comparison produced no attrib section")
	}
	if a.Sites != 2 || a.TopSite != 3 {
		t.Errorf("Sites/TopSite = %d/%d, want 2/3", a.Sites, a.TopSite)
	}
	if want := 60.0; a.TopSiteLLCPct != want {
		t.Errorf("TopSiteLLCPct = %v, want %v", a.TopSiteLLCPct, want)
	}
	if want := 5.0; a.UnattributedLLCPct != want {
		t.Errorf("UnattributedLLCPct = %v, want %v", a.UnattributedLLCPct, want)
	}

	cmp.PreFix[prefix.VariantHot] = result(900, 100, 4, 1, 1<<20)
	run = snapshot(t, cmp, Meta{Timestamp: time.Unix(0, 0)})
	if run.Benchmarks[0].Attrib != nil {
		t.Errorf("unattributed comparison wrote attrib = %+v, want nil", run.Benchmarks[0].Attrib)
	}
}

// TestGateNewBenchmark: an added benchmark is reported but does not fail
// the gate.
func TestGateNewBenchmark(t *testing.T) {
	base := sampleRun()
	cur := sampleRun()
	cur.Benchmarks = append(cur.Benchmarks, Benchmark{Name: "extra", BestCycles: 1e9})
	var out bytes.Buffer
	if err := Gate(&out, base, cur, 5); err != nil {
		t.Fatalf("Gate(added benchmark) = %v, want nil", err)
	}
	if !strings.Contains(out.String(), "NEW        extra: not in baseline") {
		t.Errorf("gate output missing NEW notice:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok: no tracked metric regressed") {
		t.Errorf("gate output missing ok line:\n%s", out.String())
	}
}

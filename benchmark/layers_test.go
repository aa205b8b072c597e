package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"prefix/internal/obs"
	"prefix/internal/pipeline"
)

// benchReplica is the replica of a bench-scale prefix-bench run with the
// given extra flags.
func benchReplica(t *testing.T, args ...string) *replica {
	t.Helper()
	r, err := newReplica(append([]string{"-scale", "bench"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	r.opt.StreamDir = t.TempDir()
	return r
}

// fidelityBenchmarks are the programs the replica is held to the
// pipeline on; health's long reference string is kept out of -short.
func fidelityBenchmarks() []string {
	if testing.Short() {
		return []string{"mcf", "libc"}
	}
	return []string{"mcf", "libc", "health"}
}

// The replica must simulate exactly what pipeline.RunBenchmark does, on
// the in-memory and the streaming profile path, traced or not: every
// strategy's machine.Metrics and the chosen variant.
func TestReplicaMatchesRunBenchmark(t *testing.T) {
	for _, name := range fidelityBenchmarks() {
		for _, stream := range []bool{false, true} {
			args := []string{"-bench", name, "-capture"}
			if stream {
				args = append(args, "-stream")
			}
			r := benchReplica(t, args...)
			// Trace the streaming run, so both the plain and the
			// instrumented call paths are held to the pipeline.
			var root *obs.Span
			if stream {
				root = obs.NewTracer().Start("test")
			}
			cmps, err := r.suite(root)
			if err != nil {
				t.Fatalf("%s stream=%v: replica: %v", name, stream, err)
			}
			want, err := pipeline.RunBenchmark(name, r.opt)
			if err != nil {
				t.Fatalf("%s stream=%v: pipeline: %v", name, stream, err)
			}
			got := cmps[0]
			for _, c := range []struct {
				strategy  string
				got, want pipeline.RunResult
			}{
				{"baseline", got.Baseline, want.Baseline},
				{"hds", got.HDS, want.HDS},
				{"halo", got.HALO, want.HALO},
			} {
				if !reflect.DeepEqual(c.got.Metrics, c.want.Metrics) {
					t.Errorf("%s stream=%v %s: metrics\n got %+v\nwant %+v", name, stream, c.strategy, c.got.Metrics, c.want.Metrics)
				}
			}
			for v, w := range want.PreFix {
				if g := got.PreFix[v]; !reflect.DeepEqual(g.Metrics, w.Metrics) {
					t.Errorf("%s stream=%v %v: metrics\n got %+v\nwant %+v", name, stream, v, g.Metrics, w.Metrics)
				}
			}
			if got.Best != want.Best || !reflect.DeepEqual(got.LongRun, want.LongRun) {
				t.Errorf("%s stream=%v: best %v long run %+v, want %v %+v", name, stream, got.Best, got.LongRun, want.Best, want.LongRun)
			}
		}
	}
}

// The replica's seed sweep must reproduce pipeline.RunVariance.
func TestReplicaMatchesRunVariance(t *testing.T) {
	for _, name := range fidelityBenchmarks() {
		r := benchReplica(t, "-only", "variance", "-seeds", "2", "-bench", name)
		got, err := r.variance(nil)
		if err != nil {
			t.Fatalf("%s: replica: %v", name, err)
		}
		want, err := pipeline.RunVariance(name, 2, r.opt)
		if err != nil {
			t.Fatalf("%s: pipeline: %v", name, err)
		}
		if !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s: variance\n got %+v\nwant %+v", name, got[0], want)
		}
	}
}

// Every workload's replica must render the bytes prefix-bench prints for
// the same flags. Checked at bench scale: the long-scale outputs are
// pinned by the digests, which every traced run checks.
func TestReplicaRendersLikeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs prefix-bench for every workload")
	}
	bin := filepath.Join(t.TempDir(), "prefix-bench")
	build := exec.Command("go", "build", "-o", bin, "prefix/cmd/prefix-bench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building prefix-bench: %v\n%s", err, out)
	}
	for _, w := range workloadTable {
		args := append([]string(nil), w.Args...)
		for i, a := range args {
			if a == "long" {
				args[i] = "bench"
			}
		}
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "TMPDIR="+t.TempDir())
		want, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: prefix-bench %v: %v", w.Name, args, err)
		}
		r, err := newReplica(args)
		if err != nil {
			t.Fatal(err)
		}
		r.opt.StreamDir = t.TempDir()
		var got bytes.Buffer
		if err := r.run(nil, &got); err != nil {
			t.Fatalf("%s: replica: %v", w.Name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: replica output differs from prefix-bench %v\n got:\n%s\nwant:\n%s", w.Name, args, got.Bytes(), want)
		}
	}
}

// The per-layer fold must cover every metric the benchmark declares and
// account a traced run's time to its layer spans.
func TestLayerTotalsCoverDeclaredMetrics(t *testing.T) {
	r := benchReplica(t, "-only", "variance", "-seeds", "2", "-bench", "mcf")
	root := obs.NewTracer().Start("test")
	var out bytes.Buffer
	if err := r.run(root, &out); err != nil {
		t.Fatal(err)
	}
	root.End()
	m := layerTotals(root)
	for _, lm := range layerMetrics {
		switch lm.Name {
		case "untraced_total_s", "cli_gap_s", "trace_overhead_pct":
			continue // filled in from the other runs
		}
		if _, ok := m[lm.Name]; !ok {
			t.Errorf("layerTotals has no %s", lm.Name)
		}
	}
	if m["prefix.plan_calls"] != 6 {
		t.Errorf("prefix.plan_calls = %v, want 3 variants x 2 seeds", m["prefix.plan_calls"])
	}
	if c := m["coverage_pct"]; c < 50 || c > 100 {
		t.Errorf("coverage_pct = %v, want most of the run inside layer spans", c)
	}
}

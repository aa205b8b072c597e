package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	core "prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// recordTrace runs ft's profiling input under the tracing machine and
// returns the trace together with its encoded file bytes.
func recordTrace(t *testing.T) (*trace.Trace, []byte) {
	t.Helper()
	spec, err := workloads.Get("ft")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	m := machine.New(baselines.NewBaseline(cachesim.DefaultCost()), cachesim.ScaledConfig(), machine.WithRecorder(rec))
	spec.Program.Run(m, spec.Profile)
	m.Finish()
	var buf bytes.Buffer
	if err := rec.Trace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	return rec.Trace(), buf.Bytes()
}

func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.pfxt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunPlanMatchesInMemoryAnalysis: the streamed analysis behind the
// CLI yields exactly the plan of the in-memory reference path.
func TestRunPlanMatchesInMemoryAnalysis(t *testing.T) {
	tr, data := recordTrace(t)
	plan, _, err := core.BuildPlan(trace.Analyze(tr), core.DefaultPlanConfig("ft", core.VariantHDSHot))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := plan.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-trace", writeFile(t, data), "-bench", "ft"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatalf("plan JSON differs from BuildPlan(Analyze(trace)):\n got %s\nwant %s", stdout.Bytes(), want.Bytes())
	}
}

func TestRunMissingTraceIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); !errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want a usage error", err)
	}
}

// TestRunRejectsBadTraces: malformed input fails with an ordinary error
// (exit 1), never a usage error or a panic.
func TestRunRejectsBadTraces(t *testing.T) {
	_, data := recordTrace(t)
	header := func(vals ...uint64) []byte {
		buf := []byte("PFXT")
		for _, v := range vals {
			buf = binary.AppendUvarint(buf, v)
		}
		return buf
	}
	cases := map[string][]byte{
		"truncated": data[:len(data)/2],
		"garbage":   []byte("this is not a trace file"),
		"empty":     nil,
		"version 1": append(header(1, 100, 1), byte(trace.KindFree), 0),
		"version 3": append(header(3, 4, 1, 2, 0, 0, 0, 0), byte(trace.KindFree), 0),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run([]string{"-trace", writeFile(t, in)}, &stdout, &stderr)
			if err == nil || errors.Is(err, errUsage) {
				t.Fatalf("err = %v, want a decode error", err)
			}
			if stdout.Len() != 0 {
				t.Errorf("plan written for bad input: %q", stdout.String())
			}
		})
	}
}

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
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

func TestRunUnwritableOutputFailsEarly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "out.pfxt")
	var out bytes.Buffer
	err := run([]string{"-bench", "ft", "-o", path}, &out)
	if err == nil {
		t.Fatal("unwritable output path accepted")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the output path", err)
	}
}

func TestRunWritesReadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ft.pfxt")
	var out bytes.Buffer
	if err := run([]string{"-bench", "ft", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 || tr.Instr == 0 {
		t.Errorf("trace is empty: %d events, instr %d", len(tr.Events), tr.Instr)
	}
	if !strings.Contains(out.String(), "events") {
		t.Errorf("summary line missing: %q", out.String())
	}
}

// TestRunStreamMatchesInMemory: binary output streams through the spill
// recorder straight into the file, and must match byte for byte the
// same run recorded in memory and written at the same -chunk-events.
func TestRunStreamMatchesInMemory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ft.pfxt")
	var out bytes.Buffer
	if err := run([]string{"-bench", "ft", "-o", path, "-chunk-events", "64"}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := workloads.Get("ft")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	m := machine.New(baselines.NewBaseline(cachesim.DefaultCost()), cachesim.ScaledConfig(), machine.WithRecorder(rec))
	spec.Program.Run(m, spec.Profile)
	m.Finish()
	tr := rec.Trace()
	var want bytes.Buffer
	sp, err := trace.NewSpillRecorder(&want, 64)
	if err != nil {
		t.Fatal(err)
	}
	sp.RecordBatch(tr.Events)
	sp.AddInstr(tr.Instr)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed file differs from the in-memory recording: %d vs %d bytes", len(got), want.Len())
	}
	wantLine := fmt.Sprintf("ft: %d events (", len(tr.Events))
	chunks := fmt.Sprintf("%d chunks (peak 64 events buffered)", (len(tr.Events)+63)/64)
	if s := out.String(); !strings.HasPrefix(s, wantLine) || !strings.Contains(s, chunks) {
		t.Errorf("summary %q, want prefix %q and %q", s, wantLine, chunks)
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	// -stream is gone: binary output always streams.
	if err := run([]string{"-bench", "ft", "-o", "x", "-stream"}, &out); !errors.Is(err, errUsage) {
		t.Errorf("-stream not rejected as an unknown flag: %v", err)
	}
	if err := run([]string{"-bench", "ft", "-o", "x", "-chunk-events", "0"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-chunk-events") {
		t.Errorf("non-positive -chunk-events not rejected: %v", err)
	}
}

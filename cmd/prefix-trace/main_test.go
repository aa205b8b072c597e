package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prefix/internal/trace"
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

// TestRunStreamMatchesInMemory: both modes write the one chunked format,
// so at the same -chunk-events the files match byte for byte.
func TestRunStreamMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	memPath := filepath.Join(dir, "mem.pfxt")
	streamPath := filepath.Join(dir, "stream.pfxt")
	var out bytes.Buffer
	if err := run([]string{"-bench", "ft", "-o", memPath, "-chunk-events", "64"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench", "ft", "-o", streamPath, "-stream", "-chunk-events", "64"}, &out); err != nil {
		t.Fatal(err)
	}
	read := func(p string) *trace.Trace {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		return tr
	}
	mem, streamed := read(memPath), read(streamPath)
	if !reflect.DeepEqual(mem.Events, streamed.Events) || mem.Instr != streamed.Instr {
		t.Fatalf("streamed trace differs from in-memory trace: %d vs %d events",
			len(streamed.Events), len(mem.Events))
	}
	if !strings.Contains(out.String(), "streamed") {
		t.Errorf("stream summary missing: %q", out.String())
	}
	memBytes, err := os.ReadFile(memPath)
	if err != nil {
		t.Fatal(err)
	}
	streamBytes, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memBytes, streamBytes) {
		t.Fatalf("files differ: %d bytes in memory, %d streamed", len(memBytes), len(streamBytes))
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bench", "ft", "-o", "x", "-stream", "-text"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-text") {
		t.Errorf("-stream -text conflict not rejected: %v", err)
	}
	if err := run([]string{"-bench", "ft", "-o", "x", "-chunk-events", "0"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-chunk-events") {
		t.Errorf("non-positive -chunk-events not rejected: %v", err)
	}
}

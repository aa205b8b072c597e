package benchstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// gateOutcome is what Gate prints and returns for one pair of documents.
func gateOutcome(baseline, current *Run) (string, string) {
	var out bytes.Buffer
	err := Gate(&out, baseline, current, 5)
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return out.String(), msg
}

// FuzzReadBaseline: Read never panics, and a document it accepts gates
// without panicking in both directions against a reference run and
// against itself (where it passes). Written back and read again, it is
// accepted and gates identically.
func FuzzReadBaseline(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		f.Fatal(err)
	}
	paths = append(paths, filepath.Join("..", "..", "testdata", "bench-smoke-baseline.json"))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	var sample bytes.Buffer
	if err := sampleRun().Write(&sample); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Add([]byte(`{"schema":4,"benchmarks":[{"name":"x","baseline_cycles":0,"time_delta_pct":-100,"attrib":{}}]}`))
	f.Add([]byte(`{"schema":4,"benchmarks":[{"name":"x"},{"name":"y","host":{"events_per_sec":1e300}}]}`))

	ref := sampleRun()
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, msg := gateOutcome(run, run); msg != "" {
			t.Fatalf("accepted document fails against itself: %s", msg)
		}
		var buf bytes.Buffer
		if err := run.Write(&buf); err != nil {
			t.Fatalf("writing an accepted document: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted document: %v\n%s", err, buf.Bytes())
		}
		for _, pair := range []struct {
			name              string
			base, cur, b2, c2 *Run
		}{
			{"as baseline", run, ref, again, ref},
			{"as run", ref, run, ref, again},
			{"against itself", run, run, again, again},
		} {
			out1, err1 := gateOutcome(pair.base, pair.cur)
			out2, err2 := gateOutcome(pair.b2, pair.c2)
			if out1 != out2 || err1 != err2 {
				t.Fatalf("%s: gate differs after a round trip:\n%s%s\n---\n%s%s", pair.name, out1, err1, out2, err2)
			}
		}
	})
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE   = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	digestRE = regexp.MustCompile(`^[0-9a-f]{64}$`)
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// keysOf returns the sorted keys of a JSON object.
func keysOf(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if got, want := keysOf(t, data), []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys = %v, want exactly %v", got, want)
	}
	for k, want := range map[string][]string{
		"workloads":  {"name", "why"},
		"end_to_end": {"better", "bound", "name", "unit"},
		"per_layer":  {"better", "name", "unit"},
	} {
		var items []json.RawMessage
		if err := json.Unmarshal(top[k], &items); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		for i, item := range items {
			if got := keysOf(t, item); !reflect.DeepEqual(got, want) {
				t.Errorf("%s[%d] keys = %v, want exactly %v", k, i, got, want)
			}
		}
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json must be well-formed and agree with the tables the
// benchmark runs from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)

	if len(f.Command) == 0 || f.Command[0] != "sh" || len(f.Command) > 32 {
		t.Errorf("command = %q, want sh and its script", f.Command)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %q, want [benchmark]", f.Paths)
	}
	for _, arg := range f.Command[1:] {
		if _, err := os.Stat("../" + arg); err != nil || !strings.HasPrefix(arg, "benchmark/") {
			t.Errorf("command argument %q is not a file under benchmark/", arg)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", f.RunSeconds)
	}

	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not a valid metric or workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(f.Workloads), len(workloadTable))
	}
	for i, w := range f.Workloads {
		name(w.Name)
		tw := workloadTable[i]
		if w.Name != tw.Name || w.Why != tw.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q %q, the table %q %q", i, w.Name, w.Why, tw.Name, tw.Why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if len(tw.Args) == 0 || !digestRE.MatchString(tw.Digest) {
			t.Errorf("workload %s: needs its prefix-bench args and a sha256 digest", tw.Name)
		}
	}

	if len(f.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(f.EndToEnd), len(e2eMetrics))
	}
	var maxBound float64
	for i, m := range f.EndToEnd {
		name(m.Name)
		tm := e2eMetrics[i]
		if m.Name != tm.Name || m.Unit != tm.Unit || m.Better != tm.Better || m.Bound != tm.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the table %+v", i, m, tm)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: needs a unit, a direction and a bound in (0, 0.25]", m.Name)
		}
		if tm.Drift <= 0 || tm.Drift > tm.Bound {
			t.Errorf("end-to-end %s: recorded drift %v must be measured and within the bound %v", m.Name, tm.Drift, tm.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	setup, ok := findE2E("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup_s must be in seconds, lower-is-better, with the largest bound")
	}

	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(f.PerLayer), len(layerMetrics))
	}
	for i, m := range f.PerLayer {
		name(m.Name)
		tm := layerMetrics[i]
		if m.Name != tm.Name || m.Unit != tm.Unit || m.Better != tm.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the table %+v", i, m, tm)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: needs a unit and a direction", m.Name)
		}
		if _, ok := findE2E(tm.Moves); !ok && tm.Moves != "none" {
			t.Errorf("per-layer %s: moves %q, want an end-to-end metric or none", m.Name, tm.Moves)
		}
		if _, ok := findWorkload(tm.On); !ok && tm.On != "every" {
			t.Errorf("per-layer %s: on %q, want a workload or every", m.Name, tm.On)
		}
	}
}

func findE2E(name string) (e2eMetric, bool) {
	for _, m := range e2eMetrics {
		if m.Name == name {
			return m, true
		}
	}
	return e2eMetric{}, false
}

// The quartiles must be the exclusive-method ones of Python's
// statistics.quantiles(n=4), by which a metric's spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, [3]float64{2, 4, 6}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		s := summarize(c.in)
		if got := [3]float64{s.P25, s.Median, s.P75}; got != c.want {
			t.Errorf("quartiles of %v = %v, want %v", c.in, got, c.want)
		}
	}
}

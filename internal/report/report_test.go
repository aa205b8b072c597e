package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"prefix/internal/hds"
	"prefix/internal/layout"
	"prefix/internal/mem"
	"prefix/internal/pipeline"
	"prefix/internal/trace"
)

func comparisons(t *testing.T) []*pipeline.Comparison {
	t.Helper()
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	var cmps []*pipeline.Comparison
	for _, name := range []string{"mcf", "ft"} {
		cmp, err := pipeline.RunBenchmark(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		cmps = append(cmps, cmp)
	}
	return cmps
}

func TestTablesRender(t *testing.T) {
	cmps := comparisons(t)
	emitters := map[string]func(*bytes.Buffer) error{
		"figure1":  func(b *bytes.Buffer) error { return Figure1(b, cmps) },
		"table2":   func(b *bytes.Buffer) error { return Table2(b, cmps) },
		"table3":   func(b *bytes.Buffer) error { return Table3(b, cmps) },
		"table4":   func(b *bytes.Buffer) error { return Table4(b, cmps) },
		"table5":   func(b *bytes.Buffer) error { return Table5(b, cmps) },
		"table6":   func(b *bytes.Buffer) error { return Table6(b, cmps) },
		"figure11": func(b *bytes.Buffer) error { return Figure11(b, cmps) },
		"figure12": func(b *bytes.Buffer) error { return Figure12(b, cmps) },
		"figure13": func(b *bytes.Buffer) error { return Figure13(b, cmps) },
		"figure14": func(b *bytes.Buffer) error { return Figure14(b, cmps) },
	}
	for name, emit := range emitters {
		var buf bytes.Buffer
		if err := emit(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := buf.String()
		if !strings.Contains(out, "mcf") || !strings.Contains(out, "ft") {
			t.Errorf("%s output missing benchmark rows:\n%s", name, out)
		}
	}
}

func TestTable3Averages(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(&buf, comparisons(t)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AVERAGE") {
		t.Error("table 3 must include the average row")
	}
}

func TestFigure2Render(t *testing.T) {
	ohds := []hds.Stream{
		{Objects: []mem.ObjectID{1, 2}, Heat: 10},
		{Objects: []mem.ObjectID{2, 3}, Heat: 5},
	}
	rec := layout.Reconstitute(ohds)
	var buf bytes.Buffer
	Figure2(&buf, ohds, rec)
	out := buf.String()
	for _, want := range []string{"OHDS", "RHDS", "layout order"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure10Render(t *testing.T) {
	var buf bytes.Buffer
	err := Figure10(&buf, "mcf", []pipeline.MTResult{{Threads: 2, BaselineCycles: 100, PreFixCycles: 90, ImprovementPct: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "+10.00%") {
		t.Errorf("figure 10 output:\n%s", buf.String())
	}
}

// heatmaps builds the heatmap of one recorded run through both entry
// points: BuildHeatmap over the materialized trace, and BuildHeatmapFrom
// over an analyzer that recorded the same events, delivered as batches
// of one. The two must agree.
func heatmaps(t *testing.T, evs []trace.Event, timeBuckets, addrBuckets int) *Heatmap {
	t.Helper()
	an := trace.NewAnalyzer()
	for i := range evs {
		an.RecordBatch(evs[i : i+1])
	}
	h := BuildHeatmap(&trace.Trace{Events: evs}, timeBuckets, addrBuckets)
	if from := BuildHeatmapFrom(an.Finish(), timeBuckets, addrBuckets); !reflect.DeepEqual(h, from) {
		t.Errorf("BuildHeatmapFrom = %+v, BuildHeatmap = %+v", from, h)
	}
	return h
}

func TestHeatmap(t *testing.T) {
	evs := []trace.Event{
		{Kind: trace.KindAlloc, Site: 1, Addr: 0x1000, Size: 64},
		{Kind: trace.KindAlloc, Site: 1, Addr: 0x9000, Size: 64},
	}
	for i := 0; i < 20; i++ {
		evs = append(evs,
			trace.Event{Kind: trace.KindAccess, Addr: 0x1000, Size: 8},
			trace.Event{Kind: trace.KindAccess, Addr: 0x9000, Size: 8})
	}
	h := heatmaps(t, evs, 4, 4)
	if h.Footprint != 0x8001 {
		t.Errorf("footprint = %#x", h.Footprint)
	}
	var total uint64
	for _, row := range h.Counts {
		for _, n := range row {
			total += n
		}
	}
	if total != 40 {
		t.Errorf("plotted accesses = %d, want 40", total)
	}
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "addr_bucket,time_bucket,count") {
		t.Error("CSV header missing")
	}
}

func TestHeatmapEmptyTrace(t *testing.T) {
	h := heatmaps(t, nil, 4, 4)
	if h.Footprint != 0 {
		t.Error("empty trace should have zero footprint")
	}
}

func TestBytesFormatting(t *testing.T) {
	cases := map[uint64]string{
		512:       "512B",
		2048:      "2KB",
		1 << 20:   "1.0MB",
		600 << 20: "600MB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if Pct(-12.5) != "-12.50%" || Pct(3.125) != "+3.12%" {
		t.Errorf("Pct formatting: %s %s", Pct(-12.5), Pct(3.125))
	}
}

// TestReportBytesIdenticalAcrossJobs is the end-to-end determinism
// guarantee of the parallel evaluation harness: the rendered reports —
// the bytes prefix-bench writes — must be identical whether the suite
// ran serially or on eight workers.
func TestReportBytesIdenticalAcrossJobs(t *testing.T) {
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	names := []string{"mcf", "ft", "health"}
	render := func(jobs int) string {
		cmps, err := pipeline.RunSuite(names, opt, jobs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, emit := range []func(*bytes.Buffer) error{
			func(b *bytes.Buffer) error { return Table2(b, cmps) },
			func(b *bytes.Buffer) error { return Table3(b, cmps) },
			func(b *bytes.Buffer) error { return Table4(b, cmps) },
			func(b *bytes.Buffer) error { return Figure11(b, cmps) },
		} {
			if err := emit(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Errorf("report bytes differ between jobs=1 and jobs=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestReportBytesIdenticalWithAttribution is the explain-smoke guarantee:
// turning attribution on must not change a single byte of the paper
// tables — attribution only adds its own table.
func TestReportBytesIdenticalWithAttribution(t *testing.T) {
	names := []string{"mcf", "health"}
	render := func(attrib bool) string {
		opt := pipeline.DefaultOptions()
		opt.UseBenchScale = true
		opt.Attribution = attrib
		cmps, err := pipeline.RunSuite(names, opt, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, emit := range []func(*bytes.Buffer) error{
			func(b *bytes.Buffer) error { return Table2(b, cmps) },
			func(b *bytes.Buffer) error { return Table3(b, cmps) },
			func(b *bytes.Buffer) error { return Table5(b, cmps) },
			func(b *bytes.Buffer) error { return Figure12(b, cmps) },
		} {
			if err := emit(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	if off, on := render(false), render(true); off != on {
		t.Errorf("report bytes differ between attribution off and on:\n--- off ---\n%s\n--- on ---\n%s", off, on)
	}
}

// TestAttributionTable: attributed comparisons render per-site rows with
// a ledger reason; unattributed ones render the skip note.
func TestAttributionTable(t *testing.T) {
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	opt.Attribution = true
	cmp, err := pipeline.RunBenchmark("mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := AttributionTable(&buf, []*pipeline.Comparison{cmp}, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mcf") || !strings.Contains(out, "site ") {
		t.Errorf("attribution table missing site rows:\n%s", out)
	}
	if strings.Contains(out, "without -attrib") {
		t.Errorf("attributed run rendered the skip note:\n%s", out)
	}

	opt.Attribution = false
	plain, err := pipeline.RunBenchmark("mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := AttributionTable(&buf, []*pipeline.Comparison{plain}, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "without -attrib") {
		t.Errorf("unattributed run missing skip note:\n%s", buf.String())
	}
}

// TestVarianceTableBytesIdenticalAcrossJobs does the same for the seed
// sweep, whose jobs additionally share one profile per benchmark.
func TestVarianceTableBytesIdenticalAcrossJobs(t *testing.T) {
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	render := func(jobs int) string {
		vs, err := pipeline.RunSuiteVariance([]string{"mcf", "health"}, 3, opt, jobs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := VarianceTable(&buf, vs); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if serial, parallel := render(1), render(6); serial != parallel {
		t.Errorf("variance table differs between jobs=1 and jobs=6:\n%s\n---\n%s", serial, parallel)
	}
}

// TestReportsNeedTheirStrategies: every emitter that reads a strategy
// fails, before writing a byte, on a comparison that did not simulate
// it — Table 4 no longer prints 0 for a missing HDS run, and the
// attribution table with -attrib but no baseline run is an error, not
// the skip note — and succeeds on one that simulated exactly what it
// reads.
func TestReportsNeedTheirStrategies(t *testing.T) {
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	opt.Attribution = true
	full, err := pipeline.RunBenchmark("mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	const bp = pipeline.StrategyBaseline | pipeline.StrategyPreFix
	emitters := []struct {
		name  string
		reads pipeline.Strategies
		emit  func(w *bytes.Buffer, cmps []*pipeline.Comparison) error
	}{
		{"figure1", 0, func(w *bytes.Buffer, c []*pipeline.Comparison) error { return Figure1(w, c) }},
		{"table2", pipeline.StrategyPreFix, func(w *bytes.Buffer, c []*pipeline.Comparison) error { return Table2(w, c) }},
		{"table3", pipeline.AllStrategies, func(w *bytes.Buffer, c []*pipeline.Comparison) error { return Table3(w, c) }},
		{"table4", pipeline.StrategyHDS | pipeline.StrategyHALO, func(w *bytes.Buffer, c []*pipeline.Comparison) error { return Table4(w, c) }},
		{"table5", pipeline.StrategyPreFix, func(w *bytes.Buffer, c []*pipeline.Comparison) error { return Table5(w, c) }},
		{"table6", bp, func(w *bytes.Buffer, c []*pipeline.Comparison) error { return Table6(w, c) }},
		{"figure11", bp, func(w *bytes.Buffer, c []*pipeline.Comparison) error { return Figure11(w, c) }},
		{"figure12", bp, func(w *bytes.Buffer, c []*pipeline.Comparison) error { return Figure12(w, c) }},
		{"figure13", bp, func(w *bytes.Buffer, c []*pipeline.Comparison) error { return Figure13(w, c) }},
		{"figure14", pipeline.StrategyPreFix, func(w *bytes.Buffer, c []*pipeline.Comparison) error { return Figure14(w, c) }},
		{"attribution", bp, func(w *bytes.Buffer, c []*pipeline.Comparison) error { return AttributionTable(w, c, 3) }},
	}
	with := func(ran pipeline.Strategies) []*pipeline.Comparison {
		cmp := *full
		cmp.Ran = pipeline.Demanding(ran)
		return []*pipeline.Comparison{&cmp}
	}
	for _, e := range emitters {
		var want bytes.Buffer
		if err := e.emit(&want, []*pipeline.Comparison{full}); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		var got bytes.Buffer
		if err := e.emit(&got, with(e.reads)); err != nil || got.String() != want.String() {
			t.Errorf("%s with exactly %s: err %v, output differs: %v", e.name, e.reads, err, got.String() != want.String())
		}
		for s := pipeline.Strategies(1); s&pipeline.AllStrategies != 0; s <<= 1 {
			var out bytes.Buffer
			err := e.emit(&out, with(pipeline.AllStrategies&^s))
			if e.reads&s == 0 {
				if err != nil {
					t.Errorf("%s without %s (which it does not read): %v", e.name, s, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), s.String()+" not simulated") {
				t.Errorf("%s without %s: err = %v, want a %q error", e.name, s, err, s.String()+" not simulated")
			}
			if out.Len() != 0 {
				t.Errorf("%s without %s: wrote %q before failing", e.name, s, out.String())
			}
		}
	}

	// A comparison that ran HDS but lost its pollution record is an
	// error too, not a row of zeros.
	cmp := *full
	cmp.HDS.Pollution = nil
	if err := Table4(new(bytes.Buffer), []*pipeline.Comparison{&cmp}); err == nil {
		t.Error("Table4 with no HDS pollution record: err = nil")
	}
}

// TestVarianceTableRejectsIncompleteSweeps: a nil entry, a sweep with no
// runs, or one with fewer deltas than runs is an error, not a row of
// +0.00%.
func TestVarianceTableRejectsIncompleteSweeps(t *testing.T) {
	ok := &pipeline.Variance{Benchmark: "mcf", Runs: 2, Deltas: []float64{-1, -2}, MeanPct: -1.5, MinPct: -2, MaxPct: -1}
	if err := VarianceTable(new(bytes.Buffer), []*pipeline.Variance{ok}); err != nil {
		t.Fatalf("complete sweep: %v", err)
	}
	for _, bad := range []*pipeline.Variance{
		nil,
		{Benchmark: "mcf"},
		{Benchmark: "mcf", Runs: 3, Deltas: []float64{-1, -2}},
	} {
		var out bytes.Buffer
		if err := VarianceTable(&out, []*pipeline.Variance{ok, bad}); err == nil || out.Len() != 0 {
			t.Errorf("VarianceTable(%+v) = %v, wrote %d bytes; want an error and no output", bad, err, out.Len())
		}
	}
}

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

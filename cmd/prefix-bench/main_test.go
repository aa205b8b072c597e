package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"prefix/internal/pipeline"
	"prefix/internal/workloads"
)

func TestValidateArgs(t *testing.T) {
	cases := []struct {
		name    string
		set     func(a *args) // applied to {scale: long, jobs: 1, regressPct: 5}
		wantErr string        // substring; "" = valid
	}{
		{"defaults", func(a *args) { a.jobs = 4 }, ""},
		{"one artifact", func(a *args) { a.only, a.scale = "table3", "bench" }, ""},
		{"variance with seeds", func(a *args) { a.only, a.seeds, a.jobs = "variance", 5, 2 }, ""},
		{"variance case-insensitive", func(a *args) { a.only, a.seeds = "VARIANCE", 3 }, ""},
		{"variance without seeds", func(a *args) { a.only = "variance" }, "-only variance requires -seeds"},
		{"seeds everything", func(a *args) { a.seeds = 2 }, ""},
		{"seeds other artifact", func(a *args) { a.only, a.seeds = "table3", 2 }, "-seeds only applies when the variance table runs"},
		{"unknown artifact", func(a *args) { a.only = "table99" }, "unknown -only artifact"},
		{"unknown scale", func(a *args) { a.scale = "huge" }, "unknown -scale"},
		{"zero jobs", func(a *args) { a.jobs = 0 }, "-jobs must be at least 1"},
		{"negative jobs", func(a *args) { a.jobs = -3 }, "-jobs must be at least 1"},
		{"negative seeds", func(a *args) { a.seeds = -1 }, "-seeds must be non-negative"},
		{"record everything", func(a *args) { a.record = true }, ""},
		{"record one table", func(a *args) { a.only, a.record = "table3", true }, ""},
		{"baseline one figure", func(a *args) { a.only, a.baseline = "figure11", "BENCH_x.json" }, ""},
		{"record non-comparison artifact", func(a *args) { a.only, a.record = "figure9", true }, "-record/-baseline snapshot the comparison suite"},
		{"baseline non-comparison artifact", func(a *args) { a.only, a.baseline = "figure10", "BENCH_x.json" }, "-record/-baseline snapshot the comparison suite"},
		{"negative regress-pct", func(a *args) { a.baseline, a.regressPct = "BENCH_x.json", -1 }, "-regress-pct must be non-negative"},
		{"stream with chunk", func(a *args) { a.stream, a.streamChunk = true, 4096 }, ""},
		{"stream default chunk", func(a *args) { a.stream = true }, ""},
		{"negative stream-chunk", func(a *args) { a.record, a.stream, a.streamChunk = true, true, -1 }, "-stream-chunk must be non-negative"},
		{"stream-chunk without stream", func(a *args) { a.streamChunk = 512 }, "-stream-chunk only applies with -stream"},
		{"attribution artifact", func(a *args) { a.only, a.attrib = "attribution", true }, ""},
		{"attribution recorded", func(a *args) { a.only, a.record, a.attrib = "attribution", true, true }, ""},
		{"attribution without -attrib", func(a *args) { a.only = "attribution" }, "-only attribution requires -attrib"},
		{"heatmap-dir everything", func(a *args) { a.heatmapDir = "out" }, ""},
		{"heatmap-dir figure9", func(a *args) { a.only, a.scale, a.heatmapDir = "FIGURE9", "bench", "out" }, ""},
		{"heatmap-dir other artifact", func(a *args) { a.only, a.scale, a.heatmapDir = "table3", "bench", "out" }, "-heatmap-dir only applies when Figure 9 runs"},
		{"capture everything", func(a *args) { a.capture = true }, ""},
		{"capture table5", func(a *args) { a.only, a.capture = "TABLE5", true }, ""},
		{"capture other artifact", func(a *args) { a.only, a.capture = "table3", true }, "-capture only applies when Table 5 runs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := args{scale: "long", jobs: 1, regressPct: 5}
			c.set(&a)
			err := a.validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("validate = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("validate = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

// TestDemand pins what each invocation simulates: the union of what its
// artifacts read, everything for a snapshot, and whether the comparison
// suite runs at all.
func TestDemand(t *testing.T) {
	const (
		b   = pipeline.StrategyBaseline
		hds = pipeline.StrategyHDS
		hal = pipeline.StrategyHALO
		pfx = pipeline.StrategyPreFix
	)
	cases := []struct {
		a         args
		needs     pipeline.Strategies
		suite     bool
		wantsSeed bool
	}{
		{args{}, pipeline.AllStrategies, true, false},
		{args{seeds: 3, attrib: true}, pipeline.AllStrategies, true, true},
		{args{only: "figure1"}, 0, true, false},
		{args{only: "figure1", record: true}, pipeline.AllStrategies, true, false},
		{args{only: "table2"}, pfx, true, false},
		{args{only: "table3"}, pipeline.AllStrategies, true, false},
		{args{only: "Table4"}, hds | hal, true, false},
		{args{only: "table5", capture: true}, pfx, true, false},
		{args{only: "table6"}, b | pfx, true, false},
		{args{only: "figure9"}, b | pfx, false, false},
		{args{only: "figure10"}, 0, false, false},
		{args{only: "figure14", baseline: "x.json"}, pipeline.AllStrategies, true, false},
		{args{only: "attribution", attrib: true}, b | pfx, true, false},
		{args{only: "variance", seeds: 2}, b | pfx, false, true},
	}
	for _, c := range cases {
		needs, suite := c.a.demand()
		if needs != c.needs || suite != c.suite || c.a.wants("variance") != c.wantsSeed {
			t.Errorf("%+v: demand = %s, suite %v, variance %v; want %s, %v, %v",
				c.a, needs, suite, c.a.wants("variance"), c.needs, c.suite, c.wantsSeed)
		}
	}
}

// TestArtifactDemands renders every artifact for all 13 benchmarks at
// bench scale twice: under the demand an invocation emitting only that
// artifact simulates, and from one invocation that simulates everything
// (with -attrib, -capture and -seeds 2). The bytes must be identical.
// Each rendered artifact's demand must also be minimal: a comparison
// missing any one of its strategies fails the renderer.
func TestArtifactDemands(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates all 13 benchmarks under eight demands")
	}
	names := workloads.Names()
	base := args{scale: "bench", jobs: 2, seeds: 2, attrib: true, capture: true}
	opts := func(a args) pipeline.Options {
		needs, _ := a.demand()
		opt := pipeline.DefaultOptions()
		opt.UseBenchScale = true
		opt.Attribution = a.attrib
		opt.CaptureLongRun = a.capture
		opt.Demand = pipeline.Demanding(needs)
		return opt
	}
	fullOpt := opts(base)
	if fullOpt.Demand.Strategies() != pipeline.AllStrategies {
		t.Fatalf("full invocation demands %s", fullOpt.Demand)
	}
	full := pipeline.NewMemo(fullOpt)
	fullCmps, err := full.Suite(names, base.jobs)
	if err != nil {
		t.Fatal(err)
	}

	// One memo per distinct (demand, capture, suite) triple, as the -only
	// runs sharing it would each build; Figure 9 and the sweep, which run
	// no suite, each get their own.
	type key struct {
		needs   pipeline.Strategies
		capture bool
		suite   bool
		only    string
	}
	type minimal struct {
		memo *pipeline.Memo
		opt  pipeline.Options
		cmps []*pipeline.Comparison
	}
	memos := map[key]*minimal{}
	for _, art := range artifacts {
		if art.name == "figure10" {
			continue // its own runs: no comparison, nothing demanded
		}
		a := base
		a.only = art.name
		if art.name != "table5" {
			a.capture = false
		}
		if art.name != "variance" {
			a.seeds = 0
		}
		if err := a.validate(); err != nil {
			t.Fatalf("%s: %v", art.name, err)
		}
		needs, suite := a.demand()
		if needs != art.needs {
			t.Errorf("%s: -only demands %s, want its needs %s", art.name, needs, art.needs)
		}
		k := key{needs: needs, capture: a.capture, suite: suite}
		if !suite {
			k.only = art.name
		}
		m := memos[k]
		if m == nil {
			m = &minimal{opt: opts(a)}
			m.memo = pipeline.NewMemo(m.opt)
			if suite {
				if m.cmps, err = m.memo.Suite(names, a.jobs); err != nil {
					t.Fatalf("%s: %v", art.name, err)
				}
			}
			memos[k] = m
		}
		var got, want bytes.Buffer
		if err := emit(&got, art, a, m.memo, m.opt, names, m.cmps); err != nil {
			t.Errorf("%s under %s: %v", art.name, needs, err)
			continue
		}
		if err := emit(&want, art, base, full, fullOpt, names, fullCmps); err != nil {
			t.Fatalf("%s under the full demand: %v", art.name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: output under %s differs from the full demand's:\n%s\nwant:\n%s", art.name, needs, got.String(), want.String())
		}

		if art.render == nil {
			continue
		}
		for s := pipeline.Strategies(1); s&pipeline.AllStrategies != 0; s <<= 1 {
			if art.needs&s == 0 {
				continue
			}
			lacking := make([]*pipeline.Comparison, len(fullCmps))
			for i, c := range fullCmps {
				cp := *c
				cp.Ran = pipeline.Demanding(pipeline.AllStrategies &^ s)
				lacking[i] = &cp
			}
			var out bytes.Buffer
			err := art.render(&out, lacking)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%s not simulated", s)) {
				t.Errorf("%s without %s: render = %v, want a %q error", art.name, s, err, s.String()+" not simulated")
			}
			if out.Len() != 0 {
				t.Errorf("%s without %s: wrote %q before failing", art.name, s, out.String())
			}
		}
	}
}

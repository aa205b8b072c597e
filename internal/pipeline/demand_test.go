package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"prefix/internal/obs"
	"prefix/internal/prefix"
)

func TestDemandZeroIsEverything(t *testing.T) {
	for _, d := range []Demand{{}, Options{}.Demand, DefaultOptions().Demand, (&Comparison{}).Ran, Demanding(AllStrategies)} {
		if d.Strategies() != AllStrategies || !d.Has(AllStrategies) {
			t.Errorf("%#v demands %s, want every strategy", d, d)
		}
	}
	d := Demanding(StrategyBaseline | StrategyPreFix)
	if !d.Has(StrategyBaseline) || !d.Has(StrategyPreFix) || d.Has(StrategyHDS) || d.Has(StrategyBaseline|StrategyHALO) {
		t.Errorf("Demanding(baseline+prefix).Has is wrong for %s", d)
	}
	for s, want := range map[Strategies]string{
		0:                                 "none",
		AllStrategies:                     "baseline+hds+halo+prefix",
		StrategyHDS | StrategyHALO:        "hds+halo",
		StrategyBaseline | StrategyPreFix: "baseline+prefix",
	} {
		if got := s.String(); got != want {
			t.Errorf("Strategies(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// evalSpans lists the names of the "eval ..." spans directly under s.
func evalSpans(s *obs.Span) []string {
	var names []string
	for _, c := range s.Children() {
		if strings.HasPrefix(c.Name, "eval ") {
			names = append(names, strings.TrimPrefix(c.Name, "eval "))
		}
	}
	return names
}

// TestDemandSimulatesOnlyDemanded: a comparison simulates exactly the
// demanded strategies, each with the result the full demand gives it;
// Sequitur is mined only for the HDS baseline, the variants are placed
// only for PreFix, and every strategy left out is an error to read.
func TestDemandSimulatesOnlyDemanded(t *testing.T) {
	full, err := RunBenchmark("mcf", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	variants := []string{"prefix:hot", "prefix:hds", "prefix:hds+hot"}
	for _, s := range []Strategies{0, StrategyHDS | StrategyHALO, StrategyPreFix, StrategyBaseline | StrategyPreFix, StrategyHDS} {
		opt := fastOpt()
		opt.Demand = Demanding(s)
		opt.Tracer = obs.NewTracer()
		opt.Metrics = obs.NewRegistry()
		cmp, err := RunBenchmark("mcf", opt)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if cmp.Ran != opt.Demand {
			t.Errorf("%s: Ran = %s", s, cmp.Ran)
		}
		var want []string
		for _, r := range []struct {
			s     Strategies
			evals []string
			got   RunResult
			full  RunResult
		}{
			{StrategyBaseline, []string{"baseline"}, cmp.Baseline, full.Baseline},
			{StrategyHDS, []string{"hds"}, cmp.HDS, full.HDS},
			{StrategyHALO, []string{"halo"}, cmp.HALO, full.HALO},
		} {
			if s&r.s == 0 {
				if !reflect.DeepEqual(r.got, RunResult{}) {
					t.Errorf("%s: %s has a result without running", s, r.s)
				}
				if err := cmp.Need(r.s); err == nil {
					t.Errorf("%s: Need(%s) = nil, want an error", s, r.s)
				}
				continue
			}
			want = append(want, r.evals...)
			if !reflect.DeepEqual(r.got, r.full) {
				t.Errorf("%s: %s result differs from the full demand's", s, r.s)
			}
		}
		if s&StrategyPreFix != 0 {
			want = append(want, variants...)
			if !reflect.DeepEqual(cmp.PreFix, full.PreFix) || cmp.Best != full.Best || !reflect.DeepEqual(cmp.Summaries, full.Summaries) {
				t.Errorf("%s: PreFix results differ from the full demand's", s)
			}
		} else if cmp.PreFix != nil || cmp.Plans != nil || cmp.Summaries != nil {
			t.Errorf("%s: PreFix state without PreFix demanded", s)
		}
		if err := cmp.Need(s); err != nil {
			t.Errorf("%s: Need(demand) = %v", s, err)
		}

		root := opt.Tracer.Roots()[0]
		if got := evalSpans(root); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: eval spans %v, want %v", s, got, want)
		}
		if got, want := countSpans(root, "slot-assignment") > 0, s&StrategyPreFix != 0; got != want {
			t.Errorf("%s: variants placed = %v, want %v", s, got, want)
		}
		var mining *obs.Span
		for _, c := range root.Children()[0].Children() {
			if c.Name == "hds-mining" {
				mining = c
			}
		}
		_, mined := spanArg(mining, "streams_sequitur")
		var prom strings.Builder
		if err := opt.Metrics.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		published := strings.Contains(prom.String(), "prefix_profile_streams_sequitur")
		if wantSeq := s&StrategyHDS != 0; mined != wantSeq || published != wantSeq || (cmp.Profile.StreamsSequitur != nil) != wantSeq {
			t.Errorf("%s: Sequitur span attr %v, gauge %v, streams %d; want mined = %v", s, mined, published, len(cmp.Profile.StreamsSequitur), wantSeq)
		}
		if wantSeq := s&StrategyHDS != 0; wantSeq && !reflect.DeepEqual(cmp.Profile.StreamsSequitur, full.Profile.StreamsSequitur) {
			t.Errorf("%s: Sequitur streams differ from the full demand's", s)
		}
	}
}

// TestSequiturMinedForSequiturPlanner: a planner that mines with
// Sequitur gets its streams whatever the demand.
func TestSequiturMinedForSequiturPlanner(t *testing.T) {
	opt := fastOpt()
	opt.Plan.Miner = prefix.MinerSequitur
	full, err := RunBenchmark("mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Demand = Demanding(StrategyPreFix)
	cmp, err := RunBenchmark("mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Profile.StreamsSequitur) == 0 || !reflect.DeepEqual(cmp.Profile.StreamsSequitur, full.Profile.StreamsSequitur) {
		t.Errorf("Sequitur streams %d, want the full demand's %d", len(cmp.Profile.StreamsSequitur), len(full.Profile.StreamsSequitur))
	}
	if !reflect.DeepEqual(cmp.PreFix, full.PreFix) {
		t.Error("PreFix results differ from the full demand's")
	}
}

func TestCaptureNeedsPreFix(t *testing.T) {
	opt := fastOpt()
	opt.CaptureLongRun = true
	opt.Demand = Demanding(StrategyBaseline)
	if _, err := RunBenchmark("mcf", opt); err == nil || !strings.Contains(err.Error(), "long-run capture") {
		t.Errorf("capture without PreFix: err = %v, want a long-run capture error", err)
	}
}

// TestMemoSharesWork pins the per-benchmark memo: after the suite, Figure
// 9's comparison is the suite's, and the variance sweep neither profiles
// nor places again, reuses the suite's comparison as seed 0, and
// simulates only the baseline and PreFix for the other seeds — with the
// deltas of a sweep run on its own.
func TestMemoSharesWork(t *testing.T) {
	names := []string{"mcf", "roms"}
	const seeds = 3
	opt := fastOpt()
	opt.Tracer = obs.NewTracer()
	opt.Metrics = obs.NewRegistry()
	memo := NewMemo(opt)
	cmps, err := memo.Suite(names, 2)
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := memo.Comparison("mcf", StrategyBaseline|StrategyPreFix)
	if err != nil {
		t.Fatal(err)
	}
	if mcf != cmps[0] {
		t.Error("Comparison(mcf) is not the suite's comparison")
	}
	if n := len(opt.Tracer.Roots()); n != len(names) {
		t.Errorf("%d root spans after a reused Comparison, want %d", n, len(names))
	}
	vs, err := memo.Variance(names, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := RunSuiteVariance(names, seeds, fastOpt(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs, alone) {
		t.Errorf("memo sweep %+v %+v, want the standalone sweep's %+v %+v", vs[0], vs[1], alone[0], alone[1])
	}

	variance := 0
	for _, root := range opt.Tracer.Roots() {
		if !strings.HasPrefix(root.Name, "variance ") {
			continue
		}
		variance++
		for _, stage := range []string{"profile", "slot-assignment"} {
			if n := countSpans(root, stage); n != 0 {
				t.Errorf("%s: %d %q spans, want 0 (the suite's profile and plans are shared)", root.Name, n, stage)
			}
		}
		for _, seed := range root.Children() {
			evals := evalSpans(seed)
			from, reused := spanArg(seed, "reused_from")
			if seed.Name == "seed 0" {
				if !reused || from != "benchmark "+strings.TrimPrefix(root.Name, "variance ") || len(evals) != 0 {
					t.Errorf("%s seed 0: reused_from %v, evals %v; want the suite's comparison", root.Name, from, evals)
				}
				continue
			}
			if reused || len(evals) != 4 || evals[0] != "baseline" || !strings.HasPrefix(evals[1], "prefix:") {
				t.Errorf("%s %s: evals %v, want baseline and the three variants", root.Name, seed.Name, evals)
			}
		}
	}
	if variance != len(names) {
		t.Errorf("%d variance roots, want %d", variance, len(names))
	}
	var prom strings.Builder
	if err := opt.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{`seed="0"`, `run="hds",seed=`, `run="halo",seed=`} {
		if strings.Contains(prom.String(), absent) {
			t.Errorf("series with %s published", absent)
		}
	}
	if !strings.Contains(prom.String(), `prefix_run_cycles{benchmark="mcf",run="baseline",seed="1"}`) {
		t.Error("seed 1 baseline series missing")
	}

	// A benchmark the suite did not run is evaluated once, on first use.
	health, err := memo.Comparison("health", StrategyBaseline|StrategyPreFix)
	if err != nil {
		t.Fatal(err)
	}
	again, err := memo.Comparison("health", StrategyPreFix)
	if err != nil {
		t.Fatal(err)
	}
	if health != again || health.Ran != Demanding(StrategyBaseline|StrategyPreFix) {
		t.Errorf("health evaluated twice, or at %s", health.Ran)
	}
}

// TestMemoDemandBounds: a memo simulates within its own demand; a
// request beyond it is an error, not a comparison missing what the
// request reads.
func TestMemoDemandBounds(t *testing.T) {
	opt := fastOpt()
	opt.Demand = Demanding(StrategyHDS | StrategyHALO)
	memo := NewMemo(opt)
	if _, err := memo.Comparison("mcf", StrategyBaseline|StrategyPreFix); err == nil || !strings.Contains(err.Error(), "exceeds the memo's hds+halo") {
		t.Errorf("Comparison beyond the memo's demand: err = %v", err)
	}
	if _, err := memo.Variance([]string{"mcf"}, 2, 1); err == nil || !strings.Contains(err.Error(), "variance sweep needs baseline+prefix") {
		t.Errorf("Variance beyond the memo's demand: err = %v", err)
	}
}

package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"prefix/internal/obs"
	"prefix/internal/prefix"
	"prefix/internal/workloads"
)

// spanArg returns the value of the span annotation key, if set.
func spanArg(s *obs.Span, key string) (any, bool) {
	keys, values := s.Args()
	for i, k := range keys {
		if k == key {
			return values[i], true
		}
	}
	return nil, false
}

// runSeries returns the Prometheus sample lines of reg that carry the
// label run=<run>.
func runSeries(t *testing.T, reg *obs.Registry, run string) []string {
	t.Helper()
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.Contains(line, `run="`+run+`"`) {
			out = append(out, line)
		}
	}
	return out
}

// TestReusedEvalMatchesFresh is the differential check of simulating each
// distinct plan once: with attribution on, every variant whose eval was
// reused from a same-behaviour plan must carry exactly the RunResult and
// the run-labelled Prometheus series of a fresh simulation of its own
// plan, published into a separate registry.
func TestReusedEvalMatchesFresh(t *testing.T) {
	names := workloads.Names()
	if testing.Short() {
		names = []string{"roms", "health", "mcf"}
	}
	byEval := make(map[string]prefix.Variant)
	for _, v := range fastOpt().Variants {
		byEval["eval "+v.String()] = v
	}
	reused := 0
	for _, name := range names {
		spec, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := fastOpt()
		opt.Attribution = true
		opt.Metrics = obs.NewRegistry()
		opt.Tracer = obs.NewTracer()
		cmp, err := RunBenchmark(name, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range opt.Tracer.Roots()[0].Children() {
			from, ok := spanArg(s, "reused_from")
			if !ok {
				continue
			}
			reused++
			v, rep := byEval[s.Name], byEval["eval "+from.(string)]
			if v == 0 || rep == 0 || rep == v {
				t.Fatalf("%s: span %q reused from %v", name, s.Name, from)
			}
			if cmp.PreFix[v].Capture == cmp.PreFix[rep].Capture {
				t.Errorf("%s %v: Capture aliases %v's", name, v, rep)
			}

			freshOpt := opt
			freshOpt.Metrics = obs.NewRegistry()
			fresh := runOne(spec, freshOpt, prefix.NewAllocator(cmp.Plans[v], opt.Cache.Cost), nil)
			if !reflect.DeepEqual(cmp.PreFix[v], fresh) {
				t.Errorf("%s %v (reused from %v): result differs from a fresh run:\n  reused %+v\n  fresh  %+v",
					name, v, from, cmp.PreFix[v], fresh)
			}
			got, want := runSeries(t, opt.Metrics, v.String()), runSeries(t, freshOpt.Metrics, v.String())
			if len(want) == 0 {
				t.Fatalf("%s %v: fresh run published no series", name, v)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v: published series differ from a fresh run's:\n  reused %q\n  fresh  %q", name, v, got, want)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no eval was reused on any workload; the differential checked nothing")
	}
	t.Logf("%d reused evals across %d workloads", reused, len(names))
}

// TestCaptureSeriesApart: the long-run capture re-runs the best variant
// under phase=capture, so it never adds to that variant's own series.
// The best variant's run-labelled series equal those of every variant
// that reuses its eval, and the re-run publishes the same numbers again
// under its own label. (leela's three variants share one eval.)
func TestCaptureSeriesApart(t *testing.T) {
	opt := fastOpt()
	opt.Demand = Demanding(StrategyPreFix)
	opt.CaptureLongRun = true
	opt.Metrics = obs.NewRegistry()
	opt.Tracer = obs.NewTracer()
	cmp, err := RunBenchmark("leela", opt)
	if err != nil {
		t.Fatal(err)
	}
	// series returns run's sample lines in or out of phase=capture, with
	// the run and phase labels cut out so variants compare directly.
	series := func(run string, capture bool) []string {
		var out []string
		for _, line := range runSeries(t, opt.Metrics, run) {
			if strings.Contains(line, `phase="capture"`) != capture {
				continue
			}
			line = strings.Replace(line, `phase="capture",`, "", 1)
			out = append(out, strings.Replace(line, `run="`+run+`"`, `run=""`, 1))
		}
		return out
	}
	best := cmp.Best.String()
	want := series(best, false)
	if len(want) == 0 {
		t.Fatalf("best variant %s published no series", best)
	}
	mallocs := opt.Metrics.Counter("prefix_run_mallocs_total", "benchmark", "leela", "run", best).Value()
	if mallocs != cmp.BestResult().Metrics.Mallocs {
		t.Errorf("%s mallocs series = %d, its run made %d", best, mallocs, cmp.BestResult().Metrics.Mallocs)
	}
	reused := 0
	for _, s := range opt.Tracer.Roots()[0].Children() {
		from, ok := spanArg(s, "reused_from")
		if !ok || from != best {
			continue
		}
		reused++
		v := strings.TrimPrefix(s.Name, "eval ")
		if got := series(v, false); !reflect.DeepEqual(got, want) {
			t.Errorf("%s reuses %s's eval but its series differ:\n  %s %q\n  %s %q", v, best, v, got, best, want)
		}
	}
	if reused == 0 {
		t.Fatalf("no variant reused %s's eval; the check compared nothing", best)
	}
	if got := series(best, true); !reflect.DeepEqual(got, want) {
		t.Errorf("phase=capture series differ from the best eval's:\n  capture %q\n  eval    %q", got, want)
	}
}

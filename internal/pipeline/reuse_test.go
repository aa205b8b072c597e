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

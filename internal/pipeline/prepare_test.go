package pipeline

import (
	"bytes"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"prefix/internal/obs"
	"prefix/internal/prefix"
	"prefix/internal/workloads"
)

// TestPreparedPlanMatchesBuildPlan is the differential check of planning
// once per profile: for every workload and every variant, the plan and
// ledger the pipeline places from its profile's preparation must
// serialize exactly like those of a fresh prefix.BuildPlan, which
// selects, mines and prepares again from the bare analysis.
func TestPreparedPlanMatchesBuildPlan(t *testing.T) {
	names := workloads.Names()
	if testing.Short() {
		names = []string{"mcf", "ft", "leela"}
	}
	for _, name := range names {
		spec, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := fastOpt()
		opt.Attribution = true
		prof, err := CollectProfile(spec, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vp, err := placeVariants(name, opt, prof, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range opt.Variants {
			cfg := opt.Plan
			cfg.Benchmark = name
			cfg.Variant = v
			cfg.Ledger = prefix.NewLedger()
			plan, _, err := prefix.BuildPlan(prof.Analysis, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", name, v, err)
			}
			var got, want bytes.Buffer
			if err := vp.plans[v].WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if err := plan.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s %v: prepared plan differs from BuildPlan", name, v)
			}
			got.Reset()
			want.Reset()
			if err := vp.summaries[v].Ledger.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if err := cfg.Ledger.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s %v: prepared ledger differs from BuildPlan's (%d vs %d decisions)",
					name, v, vp.summaries[v].Ledger.Len(), cfg.Ledger.Len())
			}
		}
	}
}

// countSpans counts the spans named name in the subtree under s.
func countSpans(s *obs.Span, name string) int {
	n := 0
	if s.Name == name {
		n++
	}
	for _, c := range s.Children() {
		n += countSpans(c, name)
	}
	return n
}

// TestVariancePlansOncePerProfile pins planning once per profile in the
// seed sweep: whatever the seed count and job count, each benchmark mines
// and prepares once and places each variant once, each seed simulates
// one PreFix eval per distinct plan behaviour (the other variants' eval
// spans carry reused_from), every seed still exports its plan gauges
// under its own seed label, and the deltas do not depend on the job
// count.
func TestVariancePlansOncePerProfile(t *testing.T) {
	names := []string{"mcf", "libc", "roms"}
	const seeds = 3
	distinct := make(map[string]int, len(names))
	for _, name := range names {
		distinct["variance "+name] = distinctPlans(t, name, fastOpt())
	}
	var deltas [][]*Variance
	for _, jobs := range []int{1, 4} {
		opt := fastOpt()
		opt.Tracer = obs.NewTracer()
		opt.Metrics = obs.NewRegistry()
		vs, err := RunSuiteVariance(names, seeds, opt, jobs)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, vs)

		roots := opt.Tracer.Roots()
		if len(roots) != len(names) {
			t.Fatalf("jobs=%d: %d root spans, want %d", jobs, len(roots), len(names))
		}
		for _, root := range roots {
			for _, stage := range []string{"hds-mining", "reconstitution", "context-inference", "recycling"} {
				if n := countSpans(root, stage); n != 1 {
					t.Errorf("jobs=%d %s: %d %q spans, want 1 per benchmark", jobs, root.Name, n, stage)
				}
			}
			if n, want := countSpans(root, "slot-assignment"), len(opt.Variants); n != want {
				t.Errorf("jobs=%d %s: %d slot-assignment spans, want %d (one per variant)", jobs, root.Name, n, want)
			}
			seedSpans := 0
			for _, seed := range root.Children() {
				if !strings.HasPrefix(seed.Name, "seed ") {
					continue
				}
				seedSpans++
				simulated, all := 0, 0
				for _, s := range seed.Children() {
					if !strings.HasPrefix(s.Name, "eval prefix:") {
						continue
					}
					all++
					if _, reused := spanArg(s, "reused_from"); !reused {
						simulated++
					}
				}
				if all != len(opt.Variants) || simulated != distinct[root.Name] {
					t.Errorf("jobs=%d %s %s: %d of %d PreFix evals simulated, want %d of %d (one per distinct plan)",
						jobs, root.Name, seed.Name, simulated, all, distinct[root.Name], len(opt.Variants))
				}
			}
			if seedSpans != seeds {
				t.Errorf("jobs=%d %s: %d seed spans, want %d", jobs, root.Name, seedSpans, seeds)
			}
		}

		var prom strings.Builder
		if err := opt.Metrics.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			for si := 0; si < seeds; si++ {
				for _, v := range opt.Variants {
					series := `prefix_plan_sites{benchmark="` + name + `",seed="` + strconv.Itoa(si) + `",variant="` + v.String() + `"}`
					if !strings.Contains(prom.String(), series) {
						t.Errorf("jobs=%d: missing %s", jobs, series)
					}
				}
			}
		}
	}
	if !reflect.DeepEqual(deltas[0], deltas[1]) {
		t.Errorf("variance differs between jobs=1 and jobs=4:\n  %+v %+v\n  %+v %+v",
			deltas[0][0], deltas[0][1], deltas[1][0], deltas[1][1])
	}
}

// distinctPlans places every configured variant of the benchmark and
// counts the plans of distinct behaviour.
func distinctPlans(t *testing.T, name string, opt Options) int {
	t.Helper()
	spec, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := CollectProfile(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	var reps []*prefix.Plan
	for _, v := range opt.Variants {
		plan, _, err := prof.Prepared.Place(v, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(reps, plan.SameBehaviour) {
			reps = append(reps, plan)
		}
	}
	return len(reps)
}

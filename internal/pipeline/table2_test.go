package pipeline

import (
	"testing"

	"prefix/internal/prefix"
	"prefix/internal/workloads"
)

// TestTable2Classification locks down each benchmark's context product —
// the pattern kinds, instrumented-site count, and counter count of
// Table 2. These are structural properties of the workloads' allocation
// behaviour plus the context-inference pipeline, so a change here means
// either a workload regression or an inference regression.
func TestTable2Classification(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles all 13 benchmarks")
	}
	want := map[string]struct {
		kinds    string
		sites    int
		counters int
	}{
		// Paper Table 2: [fixed ids, (10, 6)]
		"mysql": {"fixed ids", 10, 6},
		// Paper: [regular & fixed, (15, 7)]
		"perl": {"fixed & regular ids", 15, 7},
		// Paper: [fixed ids, (6, 2)]; the rebuilt tree trio is all-hot here
		"mcf": {"fixed & all ids", 6, 2},
		// Paper: [fixed ids, (52, 6)]
		"omnetpp": {"fixed ids", 52, 6},
		// Paper: [fixed ids, (2, 2)]
		"xalanc": {"fixed ids", 2, 2},
		// Paper: [all ids, (8, 1)]; geometry tables add one fixed counter
		"povray": {"fixed & all ids", 9, 2},
		// Paper: [all ids, (20, 1)]
		"roms": {"all ids", 20, 1},
		// Paper: [all ids, (4, 1)]
		"leela": {"all ids", 4, 1},
		// Paper: [all ids, (1, 1)]
		"swissmap": {"all ids", 1, 1},
		// Paper: [fixed ids, (6, 2)]; our per-site classification differs
		"libc": {"fixed & all ids", 8, 8},
		// Paper: [fixed & all ids, (3, 2)]
		"health": {"fixed & all ids", 3, 2},
		// Paper: [fixed & all ids, (3, 2)]; the 3-object skeleton is cold
		"ft": {"all ids", 2, 1},
		// Paper: [fixed & all ids, (5, 3)]
		"analyzer": {"fixed & all ids", 5, 3},
	}
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := CollectProfile(spec, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			plan, _, err := prof.Prepared.Place(prefix.VariantHDSHot, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			w, ok := want[name]
			if !ok {
				t.Fatalf("no expectation for %s", name)
			}
			if got := plan.KindsString(); got != w.kinds {
				t.Errorf("kinds = %q, want %q", got, w.kinds)
			}
			if got := plan.NumSites(); got != w.sites {
				t.Errorf("sites = %d, want %d", got, w.sites)
			}
			if got := plan.NumCounters(); got != w.counters {
				t.Errorf("counters = %d, want %d", got, w.counters)
			}
		})
	}
}

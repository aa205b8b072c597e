package pipeline

import (
	"testing"

	"prefix/internal/machine"
	"prefix/internal/prefix"
	"prefix/internal/workloads"
)

// TestCrossPlanFailureInjection runs every benchmark under a plan built
// for a *different* benchmark — the worst possible profile mismatch. The
// §2.3 correctness argument says the program must still run to
// completion (wrong captures only change placement, never semantics);
// this is the strongest failure-injection test the transformation can
// face short of memory corruption.
func TestCrossPlanFailureInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many cross pairs")
	}
	opt := fastOpt()
	// A plan from ft (all-ids, tiny objects) applied to everything else.
	ftSpec, err := workloads.Get("ft")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := CollectProfile(ftSpec, opt)
	if err != nil {
		t.Fatal(err)
	}
	foreign, _, err := prof.Prepared.Place(prefix.VariantHot, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"mcf", "swissmap", "health", "perl"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			alloc := prefix.NewAllocator(foreign, opt.Cache.Cost)
			m := machine.New(alloc, opt.Cache)
			// Must not panic and must complete the whole run.
			spec.Program.Run(m, spec.Profile)
			got := m.Finish()
			if got.Mallocs == 0 {
				t.Fatal("run did nothing")
			}
			// The foreign plan may capture some same-numbered sites'
			// allocations (harmless) but the size guard must keep every
			// placement inside its slot: validated implicitly by the
			// allocator's bookkeeping — we assert it didn't blow up and
			// the capture stats are consistent.
			cap := alloc.Capture()
			if cap.MallocsAvoided+cap.FallbackMallocs != got.Mallocs {
				t.Errorf("capture accounting inconsistent: %d+%d != %d",
					cap.MallocsAvoided, cap.FallbackMallocs, got.Mallocs)
			}
		})
	}
}

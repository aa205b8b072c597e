package machine

import (
	"encoding/json"
	"strings"
	"testing"

	"prefix/internal/cachesim"
	"prefix/internal/obs"
)

func sampleMetrics() Metrics {
	return Metrics{
		Instr:      1000,
		MemInstr:   400,
		AllocInstr: 100,
		Mallocs:    10,
		Frees:      8,
		Reallocs:   2,
		Cache: cachesim.Counts{
			Accesses: 400, L1Hits: 365, L1Misses: 40,
			LLCHits: 30, LLCMisses: 10,
			TLB1Miss: 4, TLB2Miss: 1, Prefetches: 10,
		},
		Cycles:      5000,
		StallCycles: 2000,
	}
}

// The JSON field names are a stable interface; this test pins them.
func TestMetricsJSONStableFields(t *testing.T) {
	b, err := json.Marshal(sampleMetrics())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"instr", "mem_instr", "alloc_instr", "mallocs", "frees", "reallocs",
		"cache", "cycles", "stall_cycles",
	} {
		if _, ok := m[field]; !ok {
			t.Errorf("JSON output missing stable field %q: %s", field, b)
		}
	}
	cache, ok := m["cache"].(map[string]any)
	if !ok {
		t.Fatalf("cache field is not an object: %s", b)
	}
	for _, field := range []string{
		"accesses", "l1_hits", "l1_misses", "llc_hits", "llc_misses",
		"tlb1_misses", "tlb2_misses", "prefetches",
	} {
		if _, ok := cache[field]; !ok {
			t.Errorf("cache JSON missing stable field %q: %s", field, b)
		}
	}

	var back Metrics
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != sampleMetrics() {
		t.Errorf("round trip changed metrics: got %+v want %+v", back, sampleMetrics())
	}
}

func TestMetricsString(t *testing.T) {
	s := sampleMetrics().String()
	for _, want := range []string{"cycles=5000", "instr=1000", "mallocs=10", "L1miss=10.000%", "stalls=40.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestMetricsPublish(t *testing.T) {
	reg := obs.NewRegistry()
	m := sampleMetrics()
	m.Publish(reg, "benchmark", "t", "run", "baseline")

	if got := reg.Counter("prefix_run_instructions_total", "benchmark", "t", "run", "baseline").Value(); got != 1000 {
		t.Errorf("instructions counter = %d, want 1000", got)
	}
	if got := reg.Counter("prefix_cache_l1_hits_total", "benchmark", "t", "run", "baseline").Value(); got != 365 {
		t.Errorf("l1 hits counter = %d, want 365 (Counts.L1Hits)", got)
	}
	if got := reg.Gauge("prefix_run_backend_stall_pct", "benchmark", "t", "run", "baseline").Value(); got != 40 {
		t.Errorf("stall pct gauge = %v, want 40", got)
	}

	// Publishing into a nil registry must be a no-op, not a panic.
	m.Publish(nil, "benchmark", "t")
}

// TestPublishStraddleL1Hits: L1 hits are line hits. A cold access
// straddling two lines misses both, so it publishes 0 hits and 2 misses
// (not accesses minus misses, which wraps below zero).
func TestPublishStraddleL1Hits(t *testing.T) {
	h := cachesim.New(cachesim.ScaledConfig())
	h.Access(0x1030, 32) // spans the 0x1000 and 0x1040 lines
	reg := obs.NewRegistry()
	Metrics{Cache: h.Counts()}.Publish(reg, "benchmark", "t")
	if got := reg.Counter("prefix_cache_l1_hits_total", "benchmark", "t").Value(); got != 0 {
		t.Errorf("l1 hits counter = %d, want 0", got)
	}
	if got := reg.Counter("prefix_cache_l1_misses_total", "benchmark", "t").Value(); got != 2 {
		t.Errorf("l1 misses counter = %d, want 2", got)
	}
}

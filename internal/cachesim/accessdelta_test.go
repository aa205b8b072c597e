package cachesim

import (
	"reflect"
	"testing"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// deltaConfigs exercises AccessDelta across hierarchy shapes: the paper
// geometry, the scaled one, and the scaled one without the prefetcher.
func deltaConfigs() []Config {
	noPrefetch := ScaledConfig()
	noPrefetch.NextLinePrefetch = false
	return []Config{PaperConfig(), ScaledConfig(), noPrefetch}
}

// TestAccessDeltaMatchesAccess drives two identical hierarchies with the
// same address stream — one through Access, one through AccessDelta —
// and requires (a) identical aggregate Counts (the delta path is the
// same walk) and (b) that the summed deltas reproduce Counts exactly
// (every event lands in exactly one delta).
func TestAccessDeltaMatchesAccess(t *testing.T) {
	for ci, cfg := range deltaConfigs() {
		plain := New(cfg)
		attr := New(cfg)
		rng := xrand.New(uint64(ci) + 42)
		var sum Counts
		for i := 0; i < 200000; i++ {
			addr := mem.Addr(rng.Uint64() % (1 << 26))
			size := rng.Uint64()%128 + 1
			plain.Access(addr, size)
			d := attr.AccessDelta(addr, size)
			sum.Add(d)
			if d.Accesses != 1 {
				t.Fatalf("cfg %d: delta counted %d accesses", ci, d.Accesses)
			}
		}
		if plain.Counts() != attr.Counts() {
			t.Fatalf("cfg %d: delta path diverged: %+v vs %+v", ci, plain.Counts(), attr.Counts())
		}
		if sum != attr.Counts() {
			t.Fatalf("cfg %d: summed deltas %+v != totals %+v", ci, sum, attr.Counts())
		}
	}
}

// filledCounts returns a Counts with field i set to base+i. Reflection
// reaches every field, so tests built on it cover fields added later.
func filledCounts(base uint64) Counts {
	var c Counts
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(base + uint64(i))
	}
	return c
}

// TestCountsSubRoundTrip: Sub inverts Add on every field, so neither can
// drop one (and AccessDelta, which is Sub, cannot either).
func TestCountsSubRoundTrip(t *testing.T) {
	a := filledCounts(10)
	b := filledCounts(100)
	c := a
	c.Add(b)
	if got := c.Sub(b); got != a {
		t.Fatalf("Sub(Add) round trip broke: %+v != %+v", got, a)
	}
	if got := c.Sub(a); got != b {
		t.Fatalf("Sub(Add) round trip broke: %+v != %+v", got, b)
	}
}

// TestAccessDeltaZeroAllocs: the attribution walk must stay on the
// allocation-free fast path — it is the same walk plus a struct copy.
func TestAccessDeltaZeroAllocs(t *testing.T) {
	h := New(ScaledConfig())
	var i uint64
	var sink Counts
	if n := testing.AllocsPerRun(10000, func() {
		sink = h.AccessDelta(mem.Addr(i*64), 8)
		i++
	}); n != 0 {
		t.Errorf("AccessDelta allocates %.2f per access", n)
	}
	_ = sink
}

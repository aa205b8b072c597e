package hds

import (
	"reflect"
	"testing"

	"prefix/internal/cachesim"
	"prefix/internal/hotness"
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/simalloc"
	"prefix/internal/trace"
	"prefix/internal/workloads"
	"prefix/internal/xrand"
)

// naiveLCS is the original closure-indexed formulation, kept verbatim as
// an oracle for the bit-parallel kernel and the DP fallback: identical
// recurrence, identical tie-break (prefer advancing b), identical
// traceback.
func naiveLCS(a, b []mem.ObjectID) []mem.ObjectID {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return nil
	}
	dp := make([]uint32, (n+1)*(m+1))
	at := func(i, j int) uint32 { return dp[i*(m+1)+j] }
	set := func(i, j int, v uint32) { dp[i*(m+1)+j] = v }
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			if a[i-1] == b[j-1] {
				set(i, j, at(i-1, j-1)+1)
			} else if at(i-1, j) >= at(i, j-1) {
				set(i, j, at(i-1, j))
			} else {
				set(i, j, at(i, j-1))
			}
		}
	}
	out := make([]mem.ObjectID, at(n, m))
	k := len(out)
	for i, j := n, m; i > 0 && j > 0; {
		switch {
		case a[i-1] == b[j-1]:
			k--
			out[k] = a[i-1]
			i--
			j--
		case at(i-1, j) >= at(i, j-1):
			i--
		default:
			j--
		}
	}
	return out
}

func randSeq(rng *xrand.Rand, n, alphabet int) []mem.ObjectID {
	s := make([]mem.ObjectID, n)
	for i := range s {
		s[i] = mem.ObjectID(rng.Uint64n(uint64(alphabet)) + 1)
	}
	return s
}

// TestLCSKernelMatchesNaive: the bit-parallel kernel (anchors up to 64)
// and the DP fallback (longer anchors) — including the reused-buffer
// path, where the mask table and the DP table retain a previous pair's
// entries — must return exactly the naive result, not just one of equal
// length.
func TestLCSKernelMatchesNaive(t *testing.T) {
	rng := xrand.New(1234)
	var lb lcsBuf // reused across all pairs, like MineLCS uses it
	for trial := 0; trial < 300; trial++ {
		n := int(rng.Uint64n(70))
		m := int(rng.Uint64n(70))
		a := randSeq(rng, n, 6)
		b := randSeq(rng, m, 6)
		want := naiveLCS(a, b)
		if got := lb.lcs(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (reused buf): lcs(%v, %v) = %v, want %v", trial, a, b, got, want)
		}
		if got := LCS(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (fresh buf): got %v, want %v", trial, got, want)
		}
	}
}

// TestLCSBufGrowsAndShrinks: a buffer sized for a big pair must still be
// correct for a following smaller pair (the DP's reuse path slices down
// and clears only row 0 / column 0; the kernel reuses the longer column
// and traceback buffers), and a DP pair after a kernel pair must not see
// the kernel's state.
func TestLCSBufGrowsAndShrinks(t *testing.T) {
	rng := xrand.New(77)
	var lb lcsBuf
	big := randSeq(rng, 120, 4)
	if got, want := lb.lcs(big, big), naiveLCS(big, big); !reflect.DeepEqual(got, want) {
		t.Fatal("big pair wrong")
	}
	small := randSeq(rng, 9, 3)
	other := randSeq(rng, 13, 3)
	if got, want := lb.lcs(small, other), naiveLCS(small, other); !reflect.DeepEqual(got, want) {
		t.Fatalf("small pair after big: got %v, want %v", got, want)
	}
	if got, want := lb.lcs(other, big), naiveLCS(other, big); !reflect.DeepEqual(got, want) {
		t.Fatalf("kernel pair with a long b: got %v, want %v", got, want)
	}
	long := randSeq(rng, 65, 3)
	if got, want := lb.lcs(long, small), naiveLCS(long, small); !reflect.DeepEqual(got, want) {
		t.Fatalf("DP pair after kernel pairs: got %v, want %v", got, want)
	}
}

// TestMineLCSLagOrder: Config.Lags may come in any order and may hold
// lags that are not positive. Those are skipped — a negative lag must
// not slice before the trace and a zero lag must not compare a window
// with itself — and a lag past the last window skips only that pair, not
// the lags after it.
func TestMineLCSLagOrder(t *testing.T) {
	const w, windows = 16, 10
	var refs []mem.ObjectID
	for i := 0; i < (windows-2)*w; i++ {
		refs = append(refs, mem.ObjectID(1000+i)) // unique: no pair matches
	}
	for k := 0; k < 2; k++ { // the last two windows repeat one motif
		for i := 0; i < w; i++ {
			refs = append(refs, mem.ObjectID(1+i))
		}
	}
	cfg := func(lags ...int) Config {
		return Config{MinLength: 2, MinFrequency: 2, MaxStreams: 8, Window: w, Lags: lags}
	}
	for _, lags := range [][]int{{-1, 0}, {0}, {-windows, -1}} {
		if got := MineLCS(refs, cfg(lags...)); len(got) != 0 {
			t.Errorf("lags %v mined %v, want nothing", lags, got)
		}
		if got := referenceMineLCS(refs, cfg(lags...)); len(got) != 0 {
			t.Errorf("reference with lags %v mined %v, want nothing", lags, got)
		}
	}
	want := MineLCS(refs, cfg(1, 8))
	if len(want) != 1 || len(want[0].Objects) != w {
		t.Fatalf("lags [1 8] mined %v, want the one %d-object motif", want, w)
	}
	for _, lags := range [][]int{{8, 1}, {-1, 0, 8, 1}} {
		if got := MineLCS(refs, cfg(lags...)); !reflect.DeepEqual(got, want) {
			t.Errorf("lags %v mined %v, want %v", lags, got, want)
		}
		if got := referenceMineLCS(refs, cfg(lags...)); !reflect.DeepEqual(got, want) {
			t.Errorf("reference with lags %v mined %v, want %v", lags, got, want)
		}
	}
}

// referenceMineLCS is the window-pair loop before its buffers were
// reused — a fresh LCS, a map-based dedupe and a Stream.Key string per
// pair — kept as the oracle for MineLCS.
func referenceMineLCS(refs []mem.ObjectID, cfg Config) []Stream {
	w := cfg.Window
	if w <= 0 {
		w = 64
	}
	if len(refs) < 2*w {
		half := len(refs) / 2
		if half < cfg.MinLength {
			return nil
		}
		sub := naiveLCS(refs[:half], refs[half:])
		if len(dedupeOrdered(sub)) < cfg.MinLength {
			return nil
		}
		return rankAndTrim([]Stream{{Objects: sub, Heat: 2 * uint64(len(sub))}}, cfg)
	}
	type acc struct {
		stream Stream
		count  uint64
	}
	cands := make(map[string]*acc)
	var order []string
	lags := cfg.Lags
	if len(lags) == 0 {
		lags = []int{1}
	}
	windows := len(refs) / w
	const maxPairs = 20000
	step := 1
	if windows*len(lags) > maxPairs {
		step = (windows*len(lags) + maxPairs - 1) / maxPairs
	}
	for i := 0; i < windows; i += step {
		a := refs[i*w : (i+1)*w]
		for _, lag := range lags {
			j := i + lag
			if lag <= 0 || j >= windows {
				continue
			}
			members := dedupeOrdered(naiveLCS(a, refs[j*w:(j+1)*w]))
			if len(members) < cfg.MinLength {
				continue
			}
			s := Stream{Objects: members}
			k := s.Key()
			if c, ok := cands[k]; ok {
				c.count++
			} else {
				cands[k] = &acc{stream: s, count: 1}
				order = append(order, k)
			}
		}
	}
	var out []Stream
	for _, k := range order {
		c := cands[k]
		freq := c.count + 1
		if int(freq) < cfg.MinFrequency {
			continue
		}
		s := c.stream
		s.Heat = freq * uint64(len(s.Objects))
		out = append(out, s)
	}
	return rankAndTrim(out, cfg)
}

// TestMineLCSMatchesReference: the buffer-reusing pair loop must return
// exactly the reference miner's OHDS on random strings of every shape —
// short (one LCS of the halves), alphabet-starved, motif-repeating — and
// under several mining configurations.
func TestMineLCSMatchesReference(t *testing.T) {
	rng := xrand.New(99)
	cfgs := []Config{
		DefaultConfig(),
		{MinLength: 4, MinFrequency: 2, MaxStreams: 16, Window: 64},
		{MinLength: 2, MinFrequency: 3, MaxStreams: 8, Window: 16, Lags: []int{1, 3, 7}},
	}
	for trial := 0; trial < 40; trial++ {
		var refs []mem.ObjectID
		switch trial % 3 {
		case 0:
			refs = randSeq(rng, int(rng.Uint64n(3000)), 2+int(rng.Uint64n(40)))
		case 1:
			refs = benchRefs(int(rng.Uint64n(4096)))
		default:
			refs = randSeq(rng, int(rng.Uint64n(200)), 5)
		}
		for ci, cfg := range cfgs {
			got, want := MineLCS(refs, cfg), referenceMineLCS(refs, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d cfg %d (%d refs): MineLCS = %v, want %v", trial, ci, len(refs), got, want)
			}
		}
	}
}

// heapAlloc runs workload profiles on the plain simulated heap.
type heapAlloc struct{ h *simalloc.Heap }

func (heapAlloc) Name() string { return "heap" }
func (a heapAlloc) Malloc(_ mem.SiteID, _ mem.StackSig, size uint64) (mem.Addr, uint64) {
	return a.h.Malloc(size), 0
}
func (a heapAlloc) Free(addr mem.Addr) uint64 { a.h.Free(addr); return 0 }
func (a heapAlloc) Realloc(addr mem.Addr, size uint64) (mem.Addr, uint64) {
	na, _ := a.h.Realloc(addr, size)
	return na, 0
}

// TestMineLCSMatchesReferenceOnWorkloads repeats the differential check
// on the collapsed hot reference strings of real workload profiles.
func TestMineLCSMatchesReferenceOnWorkloads(t *testing.T) {
	names := []string{"mcf", "ft", "health", "analyzer", "leela"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		spec, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		m := machine.New(heapAlloc{simalloc.New(0x1_0000)}, cachesim.ScaledConfig(), machine.WithRecorder(rec))
		spec.Program.Run(m, spec.Profile)
		m.Finish()
		a := trace.Analyze(rec.Trace())
		hotCfg := hotness.DefaultConfig()
		hotCfg.MaxObjects = 0
		refs := CollapseRefs(a.Refs, hotness.Select(a, hotCfg).IDs)
		cfg := DefaultConfig()
		if got, want := MineLCS(refs, cfg), referenceMineLCS(refs, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (%d refs): MineLCS found %d streams, reference %d, or their members differ", name, len(refs), len(got), len(want))
		}
	}
}

// TestMineLCSPairLoopAllocs pins the allocation-free pair loop: on a
// repeating pattern every window pair rediscovers the same stream, so
// MineLCS allocates the same small amount whether it compares a hundred
// window pairs or two thousand.
func TestMineLCSPairLoopAllocs(t *testing.T) {
	motif := make([]mem.ObjectID, 16)
	for i := range motif {
		motif[i] = mem.ObjectID(100 + i)
	}
	repeat := func(windows int) []mem.ObjectID {
		var refs []mem.ObjectID
		for len(refs) < windows*64 {
			refs = append(refs, motif...)
		}
		return refs
	}
	cfg := DefaultConfig()
	allocs := func(refs []mem.ObjectID) float64 {
		return testing.AllocsPerRun(5, func() { MineLCS(refs, cfg) })
	}
	few, many := allocs(repeat(16)), allocs(repeat(200))
	if got := MineLCS(repeat(200), cfg); len(got) != 1 || len(got[0].Objects) != len(motif) {
		t.Fatalf("repeating pattern mined %v, want the one %d-object motif", got, len(motif))
	}
	if few != many || many > 40 {
		t.Errorf("MineLCS allocations: %v over 16 windows, %v over 200 windows; want equal and at most 40", few, many)
	}
}

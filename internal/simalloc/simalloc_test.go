package simalloc

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

func TestMallocAlignmentAndDistinctness(t *testing.T) {
	h := New(0x10000)
	seen := make(map[mem.Addr]bool)
	for i := 0; i < 100; i++ {
		a := h.Malloc(uint64(i * 3))
		if a == mem.NilAddr {
			t.Fatal("nil address")
		}
		if !mem.IsAligned(uint64(a), Alignment) {
			t.Fatalf("misaligned address %v", a)
		}
		if seen[a] {
			t.Fatalf("address %v handed out twice while live", a)
		}
		seen[a] = true
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSizeMalloc(t *testing.T) {
	h := New(0x10000)
	a := h.Malloc(0)
	b := h.Malloc(0)
	if a == b {
		t.Error("zero-size allocations must be distinct")
	}
	if h.SizeOf(a) < MinPayload {
		t.Errorf("zero-size allocation got %d bytes", h.SizeOf(a))
	}
}

func TestFreeAndReuse(t *testing.T) {
	h := New(0x10000)
	a := h.Malloc(64)
	h.Malloc(64) // guard so the freed block does not merge into brk
	if !h.Free(a) {
		t.Fatal("free of live block failed")
	}
	b := h.Malloc(64)
	if a != b {
		t.Errorf("expected address reuse: freed %v, got %v", a, b)
	}
}

func TestDoubleFree(t *testing.T) {
	h := New(0x10000)
	a := h.Malloc(64)
	if !h.Free(a) {
		t.Fatal("first free failed")
	}
	if h.Free(a) {
		t.Error("double free should report failure")
	}
	if h.Stats().FailedFrees != 1 {
		t.Errorf("FailedFrees = %d, want 1", h.Stats().FailedFrees)
	}
}

func TestFreeUnknownAddress(t *testing.T) {
	h := New(0x10000)
	if h.Free(0xdeadbeef) {
		t.Error("freeing unknown address should fail")
	}
}

func TestCoalescingMergesNeighbours(t *testing.T) {
	h := New(0x10000)
	a := h.Malloc(64)
	b := h.Malloc(64)
	c := h.Malloc(64)
	h.Malloc(64) // tail guard
	h.Free(a)
	h.Free(c)
	h.Free(b) // should merge with both neighbours
	if h.Stats().Coalesces == 0 {
		t.Error("expected coalescing")
	}
	// The merged block must satisfy a request the fragments could not:
	// 3 payloads + 2 reclaimed headers.
	big := h.Malloc(64*3 + 2*HeaderSize)
	if big != a {
		t.Errorf("expected merged block at %v, got %v", a, big)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitLargeBlock(t *testing.T) {
	h := New(0x10000)
	a := h.Malloc(1024)
	h.Malloc(16) // guard
	h.Free(a)
	small := h.Malloc(64)
	if small != a {
		t.Errorf("small alloc should reuse split block start %v, got %v", a, small)
	}
	second := h.Malloc(64)
	if !(second > small && second < a+1024) {
		t.Errorf("second alloc should come from the remainder, got %v", second)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReallocGrowPreservesAccounting(t *testing.T) {
	h := New(0x10000)
	a := h.Malloc(64)
	h.Malloc(16) // block growth in place
	na, copied := h.Realloc(a, 256)
	if na == a {
		t.Error("grow with a neighbour should move")
	}
	if copied != 64 {
		t.Errorf("copied = %d, want 64", copied)
	}
	if h.SizeOf(na) < 256 {
		t.Errorf("new block too small: %d", h.SizeOf(na))
	}
	if h.Owns(a) {
		t.Error("old block should be freed")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReallocShrinkInPlace(t *testing.T) {
	h := New(0x10000)
	a := h.Malloc(256)
	na, _ := h.Realloc(a, 64)
	if na != a {
		t.Error("shrink should stay in place")
	}
}

func TestReallocNil(t *testing.T) {
	h := New(0x10000)
	a, copied := h.Realloc(mem.NilAddr, 128)
	if a == mem.NilAddr || copied != 0 {
		t.Errorf("Realloc(nil) = %v,%d", a, copied)
	}
}

func TestPeakTracking(t *testing.T) {
	h := New(0x10000)
	var addrs []mem.Addr
	for i := 0; i < 10; i++ {
		addrs = append(addrs, h.Malloc(1024))
	}
	peak := h.Stats().PeakBytes
	for _, a := range addrs {
		h.Free(a)
	}
	if h.Stats().PeakBytes != peak {
		t.Error("peak must not drop after frees")
	}
	if h.Stats().LiveBytes != 0 {
		t.Errorf("live bytes = %d after freeing everything", h.Stats().LiveBytes)
	}
	// Reusing freed space must not raise the peak.
	h.Malloc(1024)
	if h.Stats().PeakBytes != peak {
		t.Error("reuse should not raise peak")
	}
}

func TestStatsCounts(t *testing.T) {
	h := New(0x10000)
	a := h.Malloc(32)
	b := h.Malloc(32)
	h.Free(a)
	h.Realloc(b, 64)
	s := h.Stats()
	if s.Mallocs < 2 || s.Frees < 1 || s.Reallocs != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestOwns(t *testing.T) {
	h := New(0x10000)
	a := h.Malloc(64)
	if !h.Owns(a) {
		t.Error("should own live block")
	}
	h.Free(a)
	if h.Owns(a) {
		t.Error("should not own freed block")
	}
}

// TestRandomOperationsInvariant drives the allocator with random
// malloc/free/realloc sequences and validates the internal invariants and
// that live blocks never overlap. It then breaks each invariant in turn on
// a copy of every random heap and requires CheckInvariants to name it.
func TestRandomOperationsInvariant(t *testing.T) {
	corrupted := make(map[string]int)
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		h := New(0x10000)
		type blk struct {
			addr mem.Addr
			size uint64
		}
		var live []blk
		for op := 0; op < 400; op++ {
			switch {
			case len(live) == 0 || rng.Float64() < 0.5:
				size := rng.Uint64n(600)
				a := h.Malloc(size)
				live = append(live, blk{a, h.SizeOf(a)})
			case rng.Float64() < 0.6:
				i := rng.Intn(len(live))
				if !h.Free(live[i].addr) {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			default:
				i := rng.Intn(len(live))
				na, _ := h.Realloc(live[i].addr, rng.Uint64n(800))
				live[i] = blk{na, h.SizeOf(na)}
			}
		}
		if err := h.CheckInvariants(); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		for _, c := range corruptions {
			bad := cloneHeap(h)
			if !c.apply(bad) {
				continue
			}
			corrupted[c.name]++
			if err := bad.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Logf("corruption %q: CheckInvariants = %v, want %q", c.name, err, c.want)
				return false
			}
		}
		// No two live blocks may overlap.
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				ri := mem.Range{Start: live[i].addr, Size: live[i].size}
				rj := mem.Range{Start: live[j].addr, Size: live[j].size}
				if ri.Overlaps(rj) {
					t.Logf("overlap: %v %v", ri, rj)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	for _, c := range corruptions {
		if corrupted[c.name] == 0 {
			t.Errorf("corruption %q never applied: no random heap had the shape it needs", c.name)
		}
	}
}

// cloneHeap returns a deep copy of h that can be corrupted without
// touching h.
func cloneHeap(h *Heap) *Heap {
	c := *h
	c.slab = append([]block(nil), h.slab...)
	c.spare = append([]int32(nil), h.spare...)
	c.index = make(map[mem.Addr]int32, len(h.index))
	for a, i := range h.index {
		c.index[a] = i
	}
	for b := range h.bins {
		c.bins[b] = append([]int32(nil), h.bins[b]...)
	}
	return &c
}

// blocksInOrder returns h's slab indices in address order.
func blocksInOrder(h *Heap) []int32 {
	var out []int32
	for i := h.last; i != nilIdx; i = h.slab[i].prev {
		out = append(out, i)
	}
	slices.Reverse(out)
	return out
}

// corruptions break one CheckInvariants rule each. apply reports false
// when the heap lacks the shape the corruption needs.
var corruptions = []struct {
	name  string
	want  string // substring of the error CheckInvariants must return
	apply func(h *Heap) bool
}{
	{"free block not filed", "missing from bin", func(h *Heap) bool {
		for b, list := range h.bins {
			if len(list) > 0 {
				h.bins[b] = list[1:]
				return true
			}
		}
		return false
	}},
	{"free block filed twice", "filed twice", func(h *Heap) bool {
		for b, list := range h.bins {
			if len(list) > 0 {
				h.bins[b] = append(list, list[0])
				return true
			}
		}
		return false
	}},
	{"free block in the wrong bin", "filed in bin", func(h *Heap) bool {
		for b, list := range h.bins {
			if len(list) == 1 {
				other := (b + 1) % numBins
				if len(h.bins[other]) == 0 {
					h.bins[b], h.bins[other] = nil, list
					return true
				}
			}
		}
		return false
	}},
	{"bin out of address order", "not address-ordered", func(h *Heap) bool {
		for _, list := range h.bins {
			if len(list) > 1 {
				list[0], list[1] = list[1], list[0]
				return true
			}
		}
		return false
	}},
	{"prev link disagrees with address order", "links prev", func(h *Heap) bool {
		order := blocksInOrder(h)
		if len(order) < 3 {
			return false
		}
		h.slab[order[2]].prev = order[0]
		return true
	}},
	{"next link disagrees with address order", "links next", func(h *Heap) bool {
		order := blocksInOrder(h)
		if len(order) < 3 {
			return false
		}
		h.slab[order[0]].next = order[2]
		return true
	}},
	{"last is not the highest block", "last is", func(h *Heap) bool {
		if h.last == nilIdx || h.slab[h.last].prev == nilIdx {
			return false
		}
		h.last = h.slab[h.last].prev
		return true
	}},
	{"adjacent free blocks", "not coalesced", func(h *Heap) bool {
		for _, list := range h.bins {
			for _, i := range list {
				if n := h.slab[i].next; n != nilIdx {
					h.slab[n].free = true
					return true
				}
			}
		}
		return false
	}},
	{"spare record reachable", "reachable from the address map", func(h *Heap) bool {
		if len(h.spare) == 0 {
			return false
		}
		h.slab[h.spare[0]].addr = h.slab[0].addr
		return true
	}},
	{"live block missing from the address map", "not reachable from the address map", func(h *Heap) bool {
		for _, i := range blocksInOrder(h) {
			if !h.slab[i].free {
				delete(h.index, h.slab[i].addr)
				return true
			}
		}
		return false
	}},
}

// churnSizes are the request sizes of the churn loop: exact and log bins,
// splitting a free hole and coalescing it back on every pair.
var churnSizes = []uint64{24, 64, 100, 256, 600, 40, 2000, 16, 496, 4096}

// churnHeap returns a heap of live blocks with free holes of every
// churnSizes class between them.
func churnHeap() *Heap {
	h := New(0x10000)
	var addrs []mem.Addr
	for i := 0; i < 4*len(churnSizes); i++ {
		addrs = append(addrs, h.Malloc(2*churnSizes[i%len(churnSizes)]))
	}
	for i := 0; i < len(addrs); i += 2 {
		h.Free(addrs[i])
	}
	return h
}

// churn runs pairs malloc+free pairs on h.
func churn(h *Heap, pairs int) {
	for i := 0; i < pairs; i++ {
		h.Free(h.Malloc(churnSizes[i%len(churnSizes)]))
	}
}

// TestHeapChurnAllocs pins the steady-state malloc/free path at zero host
// allocations: once the slab, bins and address map have grown to the
// working set, splitting, coalescing and refiling reuse their storage.
func TestHeapChurnAllocs(t *testing.T) {
	h := churnHeap()
	churn(h, 1000) // warm-up
	if n := testing.AllocsPerRun(1, func() { churn(h, 1000) }); n != 0 {
		t.Errorf("1000 malloc+free pairs made %v host allocations, want 0", n)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.Stats().Coalesces == 0 {
		t.Error("churn never split and coalesced a block")
	}
}

// BenchmarkHeapChurn measures one malloc+free pair of the churn loop.
func BenchmarkHeapChurn(b *testing.B) {
	h := churnHeap()
	churn(h, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	churn(h, b.N)
}

func TestBinFor(t *testing.T) {
	if binFor(16) == binFor(4096) {
		t.Error("small and large sizes should use different bins")
	}
	for size := uint64(16); size <= 1<<20; size *= 2 {
		b := binFor(size)
		if b < 0 || b >= numBins {
			t.Fatalf("binFor(%d) = %d out of range", size, b)
		}
	}
	if binFor(1<<40) >= numBins {
		t.Error("huge size overflows bins")
	}
}

func TestBrkGrowsMonotonically(t *testing.T) {
	h := New(0x10000)
	prev := h.Brk()
	for i := 0; i < 50; i++ {
		h.Malloc(128)
		if h.Brk() < prev {
			t.Fatal("brk moved backwards")
		}
		prev = h.Brk()
	}
	if h.Base() != 0x10000 {
		t.Errorf("base = %v", h.Base())
	}
}

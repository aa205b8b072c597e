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

// TestFreeRejectsNonPayloadAddresses frees addresses whose index slot
// is out of reach, untouched, shared with a live payload, or stale, and
// requires each free to fail, count in FailedFrees, and leave the heap
// intact.
func TestFreeRejectsNonPayloadAddresses(t *testing.T) {
	h := New(0x10000)
	x := h.Malloc(64)
	y := h.Malloc(64)
	big := h.Malloc(256)
	h.Free(y)
	h.Free(x)      // merges y's block into x's; y's slot goes stale
	h.Malloc(4096) // extends the break with y's old, now spare, record
	if !h.Owns(big) {
		t.Fatal("guard block not live")
	}
	bad := []struct {
		name string
		addr mem.Addr
	}{
		{"the nil address", mem.NilAddr},
		{"below the heap base", h.Base() - slotBytes},
		{"misaligned, in a live payload's slot", big + 1},
		{"inside a live block", big + 2*slotBytes},
		{"past the table", h.Brk() + chunkSlots*slotBytes},
		{"past every window", h.Base() + dirChunks*chunkSlots*slotBytes},
		{"stale after coalescing", y},
	}
	for k, c := range bad {
		if h.Free(c.addr) {
			t.Errorf("%s: Free(%v) succeeded", c.name, c.addr)
		}
		if got := h.Stats().FailedFrees; got != uint64(k+1) {
			t.Errorf("%s: FailedFrees = %d, want %d", c.name, got, k+1)
		}
	}
	if !h.Owns(big) || h.SizeOf(big) != 256 {
		t.Error("a failed free disturbed the live block")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// allocatedChunks counts the index chunks h has allocated, by window.
func allocatedChunks(h *Heap) []int {
	var n []int
	for _, w := range h.index {
		n = append(n, 0)
		for _, ch := range w.dir {
			if ch != &untouched {
				n[len(n)-1]++
			}
		}
	}
	return n
}

// TestIndexChunksStaySparse: a huge block spans thousands of index
// chunks, but only the chunks holding payload addresses are allocated.
func TestIndexChunksStaySparse(t *testing.T) {
	h := New(0x10000)
	h.Malloc(1 << 30)
	for i := 0; i < 100; i++ {
		h.Malloc(64)
	}
	if got := allocatedChunks(h); !slices.Equal(got, []int{2}) {
		t.Errorf("allocated chunks by window = %v, want [2]", got)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexWindows: payloads more than 8 GiB above the base open a
// second window, and malloc, free and reuse work there as below it.
func TestIndexWindows(t *testing.T) {
	h := New(0x10000)
	low := h.Malloc(9 << 30)
	a := h.Malloc(64)
	b := h.Malloc(64)
	h.Malloc(64) // guard
	if got := allocatedChunks(h); !slices.Equal(got, []int{1, 1}) {
		t.Fatalf("allocated chunks by window = %v, want [1 1]", got)
	}
	if !h.Free(a) || !h.Free(b) || h.Free(b) || h.Owns(a) || !h.Owns(low) {
		t.Error("free, double free or ownership wrong past the first window")
	}
	if c := h.Malloc(100); c != a || h.SizeOf(c) != 112 {
		t.Errorf("reuse past the first window: got %v (%d bytes), want %v", c, h.SizeOf(c), a)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusesOverflowingRequests: a request whose aligned size or block
// end passes 2^64 returns NilAddr and changes no block; a refused
// Realloc keeps the old block live.
func TestRefusesOverflowingRequests(t *testing.T) {
	unchanged := func(t *testing.T, h *Heap, brk mem.Addr, live uint64) {
		t.Helper()
		if h.Brk() != brk || h.Stats().LiveBlocks != live {
			t.Errorf("heap changed: brk %v (want %v), live blocks %d (want %d)",
				h.Brk(), brk, h.Stats().LiveBlocks, live)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	t.Run("aligned size wraps", func(t *testing.T) {
		h := New(0x10000)
		if a := h.Malloc(^uint64(0)); a != mem.NilAddr {
			t.Errorf("Malloc(2^64-1) = %v (%d bytes)", a, h.SizeOf(a))
		}
		unchanged(t, h, h.Base(), 0)
	})
	t.Run("break wraps", func(t *testing.T) {
		h := New(0x10000)
		first := h.Malloc(1 << 63)
		brk := h.Brk()
		if a := h.Malloc(1 << 63); a != mem.NilAddr {
			t.Errorf("second Malloc(2^63) = %v", a)
		}
		unchanged(t, h, brk, 1)
		if a := h.Malloc(64); a != brk+HeaderSize {
			t.Errorf("Malloc(64) = %v, want %v past the first block at %v", a, brk+HeaderSize, first)
		}
	})
	t.Run("realloc", func(t *testing.T) {
		h := New(0x10000)
		p := h.Malloc(64)
		h.Malloc(1 << 63) // leaves too little room for another 2^63
		brk := h.Brk()
		for _, size := range []uint64{^uint64(0), 1 << 63} {
			if a, n := h.Realloc(p, size); a != mem.NilAddr || n != 0 {
				t.Errorf("Realloc(p, %#x) = %v, %d", size, a, n)
			}
			if h.SizeOf(p) != 64 {
				t.Errorf("Realloc(p, %#x) left p with %d bytes", size, h.SizeOf(p))
			}
			unchanged(t, h, brk, 2)
		}
	})
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
	c.index = append([]window(nil), h.index...)
	for k, w := range c.index {
		c.index[k].dir = append([]*[chunkSlots]int32(nil), w.dir...)
		for d, ch := range w.dir {
			if ch != &untouched {
				cp := *ch
				c.index[k].dir[d] = &cp
			}
		}
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
	{"spare record reachable", "reachable from the index", func(h *Heap) bool {
		if len(h.spare) == 0 {
			return false
		}
		h.slab[h.spare[0]].addr = h.slab[0].addr
		return true
	}},
	{"live block missing from the index", "not reachable from the index", func(h *Heap) bool {
		// Point a live block's slot at another live record, as a lost
		// index write would leave it.
		var live []int32
		for _, i := range blocksInOrder(h) {
			if !h.slab[i].free {
				live = append(live, i)
			}
		}
		if len(live) < 2 {
			return false
		}
		key := uint64(h.slab[live[0]].addr-h.heapStart) / slotBytes
		h.chunk(key >> chunkShift)[key%chunkSlots] = live[1]
		return true
	}},
	{"block below the minimum payload", "minimum payload", func(h *Heap) bool {
		order := blocksInOrder(h)
		if len(order) < 2 {
			return false
		}
		// Move 16 bytes from the lowest block's payload to its
		// neighbour's, keeping the tiling: the neighbour now starts where
		// a block one minimum payload short of legal would end.
		a, b := &h.slab[order[0]], &h.slab[order[1]]
		b.addr -= mem.Addr(a.size)
		b.size += a.size
		a.size = 0
		return true
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

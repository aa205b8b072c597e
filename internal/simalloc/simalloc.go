// Package simalloc implements a malloc-style heap allocator over a
// simulated 64-bit address space. It is the substrate every strategy in
// this repository allocates from: the baseline runs use it directly, and
// the HDS / HALO / PreFix strategies fall back to it for objects they do
// not capture.
//
// The allocator is a segregated free-list design in the spirit of dlmalloc:
//
//   - every block carries a 16-byte header (accounted, not stored — no real
//     memory backs the simulated space);
//   - payloads are 16-byte aligned;
//   - freed blocks are coalesced with free neighbours and indexed in
//     size-class bins; allocation is first-fit within the best bin
//     (address-ordered), which reproduces the address-reuse behaviour that
//     scatters hot objects between cold ones in real heaps — exactly the
//     phenomenon PreFix exists to fix;
//   - the heap grows by extending a contiguous break (sbrk-style).
//
// The allocator also tracks the statistics the evaluation needs: live
// bytes, peak footprint (paper Table 6), and operation counts.
//
// Every simulated malloc and free runs through this heap, so its host
// cost is a large share of a simulation's. The bookkeeping is therefore
// allocation-free in steady state and hashes nothing: block records live
// in one slab and link to their address-order neighbours by slab index,
// the bins hold slab indices and remove in place, and a payload address
// finds its record through a direct table indexed by address (see Heap).
//
// A request whose aligned size, or whose block end, would pass 2^64 is
// refused: Malloc returns NilAddr and Realloc leaves the old block live.
package simalloc

import (
	"fmt"
	"sort"

	"prefix/internal/mem"
	"prefix/internal/obs"
)

const (
	// HeaderSize models the per-block malloc metadata.
	HeaderSize = 16
	// Alignment of returned payload addresses.
	Alignment = 16
	// MinPayload is the smallest payload a block can hold; frees smaller
	// than this still occupy MinPayload bytes.
	MinPayload = 16
)

// The payload index is a direct table with one slot per slotBytes of
// heap above the base. Two payloads are at least a header and a minimum
// payload apart, so no two live blocks share a slot. The table is cut
// into chunks of chunkSlots slots (128 KiB of heap each), allocated when
// a malloc first writes one and never moved. Chunk pointers sit in
// windows: directories of at most dirChunks pointers (8 GiB of heap),
// each starting at its own chunk number. A heap that stays within 8 GiB
// of its base has one window, at chunk 0; each further window is opened
// by a payload beyond the reach of the existing ones, which only
// multi-GiB requests place.
const (
	slotBytes  = HeaderSize + MinPayload
	chunkShift = 12
	chunkSlots = 1 << chunkShift
	dirChunks  = 1 << 16
)

// window holds the pointers of chunks base, base+1, ..., base+len(dir)-1.
type window struct {
	base uint64
	dir  []*[chunkSlots]int32 // a chunk no malloc has written is &untouched
}

// untouched stands for every chunk no malloc has written yet. It is
// never written: its slots all read 0, which find validates like any
// stale slot.
var untouched [chunkSlots]int32

// numBins segregates free blocks by size class: bins 0..31 hold exact
// 16-byte multiples up to 512 bytes, later bins are logarithmic.
const numBins = 48

// nilIdx is the slab index of "no block": the prev of the lowest block,
// the next of the highest, and last on an empty heap.
const nilIdx int32 = -1

// block is an allocated or free region of the simulated heap, stored by
// value in Heap.slab. Blocks partition the heap: every byte between
// heapStart and brk belongs to exactly one block. A record on the spare
// list belongs to no block, is free and has addr NilAddr.
type block struct {
	addr       mem.Addr // payload address
	size       uint64   // payload size (aligned)
	prev, next int32    // address-order neighbours' slab indices, or nilIdx
	free       bool
}

// Heap is the simulated allocator. It is not safe for concurrent use; the
// machine layer serializes access (the simulation interleaves logical
// threads deterministically).
//
// A malloc writes the payload's slab index into its index slot and a
// free reads it back. Merging a block away on coalescing does not clear
// its slot: slots may be stale (an untouched slot of an allocated chunk
// reads 0), and find treats a slot as valid only when the record it
// names still holds a live block at exactly that address. Records freed
// by coalescing go on the spare list free, with addr NilAddr, so no slot
// can resolve to a spare record, even for the address NilAddr.
type Heap struct {
	heapStart mem.Addr
	brk       mem.Addr

	slab  []block  // every block record, indexed by int32
	spare []int32  // slab indices free for reuse
	index []window // payload slot -> slab index (may be stale), in opening order
	last  int32    // highest block, nilIdx when the heap is empty

	bins [numBins][]int32 // free blocks' slab indices, address-ordered

	stats Stats
}

// Stats summarizes allocator activity.
type Stats struct {
	Mallocs     uint64
	Frees       uint64
	Reallocs    uint64
	LiveBytes   uint64 // payload bytes currently allocated
	LiveBlocks  uint64
	GrossBytes  uint64 // payload + header bytes inside the break
	PeakBytes   uint64 // peak of GrossBytes: the paper's "peak memory"
	BrkExtends  uint64
	Coalesces   uint64
	FailedFrees uint64 // frees of unknown addresses (always a caller bug)
}

// Fragmentation returns the share of the heap break not backing live
// payloads: (GrossBytes - LiveBytes) / GrossBytes, in [0,1]. An empty
// heap reports 0.
func (s Stats) Fragmentation() float64 {
	if s.GrossBytes == 0 {
		return 0
	}
	return float64(s.GrossBytes-s.LiveBytes) / float64(s.GrossBytes)
}

// Publish reports the heap's activity and footprint — live/gross/peak
// bytes, fragmentation, operation counts — into reg under the given label
// pairs. Nil-safe on a nil registry.
func (s Stats) Publish(reg *obs.Registry, kv ...string) {
	if reg == nil {
		return
	}
	reg.Counter("prefix_heap_mallocs_total", kv...).Add(s.Mallocs)
	reg.Counter("prefix_heap_frees_total", kv...).Add(s.Frees)
	reg.Counter("prefix_heap_reallocs_total", kv...).Add(s.Reallocs)
	reg.Counter("prefix_heap_brk_extends_total", kv...).Add(s.BrkExtends)
	reg.Counter("prefix_heap_coalesces_total", kv...).Add(s.Coalesces)
	reg.Counter("prefix_heap_failed_frees_total", kv...).Add(s.FailedFrees)
	reg.Gauge("prefix_heap_live_bytes", kv...).Set(float64(s.LiveBytes))
	reg.Gauge("prefix_heap_live_blocks", kv...).Set(float64(s.LiveBlocks))
	reg.Gauge("prefix_heap_gross_bytes", kv...).Set(float64(s.GrossBytes))
	reg.Gauge("prefix_heap_peak_bytes", kv...).Set(float64(s.PeakBytes))
	reg.Gauge("prefix_heap_fragmentation", kv...).Set(s.Fragmentation())
}

// HeapBase is where the general-purpose heap lives in the simulated
// address space. Strategy-private regions are placed far above it.
const HeapBase mem.Addr = 0x0001_0000

// New creates an empty heap whose break starts at base, or at HeapBase
// when base is NilAddr. Strategies place their private regions far from
// base so the address spaces never overlap.
func New(base mem.Addr) *Heap {
	if base == mem.NilAddr {
		base = HeapBase
	}
	return &Heap{
		heapStart: base,
		brk:       base,
		last:      nilIdx,
	}
}

// Base returns the lowest address the heap manages.
func (h *Heap) Base() mem.Addr { return h.heapStart }

// Brk returns the current heap break (first unowned address).
func (h *Heap) Brk() mem.Addr { return h.brk }

// Stats returns a copy of the allocator statistics.
func (h *Heap) Stats() Stats { return h.stats }

func binFor(size uint64) int {
	if size <= 512 {
		b := int(size / 16)
		if b >= 32 {
			b = 31
		}
		return b
	}
	// logarithmic bins above 512
	b := 32
	s := uint64(1024)
	for size > s && b < numBins-1 {
		s <<= 1
		b++
	}
	return b
}

// find returns the slab index of the live block whose payload starts at
// addr, or nilIdx when addr is not a live payload address. The first
// window whose directory holds addr's chunk answers; that is the window
// chunk wrote the slot in, since an earlier window could hold the chunk
// only if its reach covered it. The slot read, whatever addr is (below
// the base it wraps around), names a live block only if that record is
// live at exactly addr.
//
//prefix:hotpath
func (h *Heap) find(addr mem.Addr) int32 {
	key := uint64(addr-h.heapStart) / slotBytes
	c := key >> chunkShift
	i := nilIdx
	for _, w := range h.index {
		if d := c - w.base; d < uint64(len(w.dir)) {
			i = w.dir[d][key%chunkSlots]
			break
		}
	}
	if i == nilIdx || h.slab[i].addr != addr || h.slab[i].free {
		return nilIdx
	}
	return i
}

// record writes slab index i, a live block, into its payload's slot.
func (h *Heap) record(i int32) {
	key := uint64(h.slab[i].addr-h.heapStart) / slotBytes
	h.chunk(key >> chunkShift)[key%chunkSlots] = i
}

// chunk returns index chunk c, allocating it on first use in the first
// window whose reach covers c, or in a new window based at c.
func (h *Heap) chunk(c uint64) *[chunkSlots]int32 {
	k := 0
	for k < len(h.index) && c-h.index[k].base >= dirChunks {
		k++
	}
	if k == len(h.index) {
		h.index = append(h.index, window{base: c})
	}
	w := &h.index[k]
	d := c - w.base
	for uint64(len(w.dir)) <= d {
		w.dir = append(w.dir, &untouched)
	}
	if w.dir[d] == &untouched {
		w.dir[d] = new([chunkSlots]int32)
	}
	return w.dir[d]
}

// newRecord returns the slab index of a new, unlinked block record,
// reusing a spare one when there is any.
func (h *Heap) newRecord(addr mem.Addr, size uint64, free bool) int32 {
	b := block{addr: addr, size: size, prev: nilIdx, next: nilIdx, free: free}
	if n := len(h.spare); n > 0 {
		i := h.spare[n-1]
		h.spare = h.spare[:n-1]
		h.slab[i] = b
		return i
	}
	h.slab = append(h.slab, b)
	return int32(len(h.slab) - 1)
}

// dropRecord unlinks block i, which coalescing merged into its lower
// neighbour, and puts its record on the spare list. The record becomes
// a free block at NilAddr, so a stale slot for the old address, or any
// slot read for NilAddr, no longer resolves.
func (h *Heap) dropRecord(i int32) {
	p, n := h.slab[i].prev, h.slab[i].next
	if p != nilIdx {
		h.slab[p].next = n
	}
	if n != nilIdx {
		h.slab[n].prev = p
	}
	if h.last == i {
		h.last = p
	}
	h.slab[i] = block{addr: mem.NilAddr, prev: nilIdx, next: nilIdx, free: true}
	h.spare = append(h.spare, i)
}

// payloadSize returns the payload a request of size bytes occupies, and
// false when aligning it would pass 2^64.
func payloadSize(size uint64) (uint64, bool) {
	if size > ^uint64(0)-(Alignment-1) {
		return 0, false
	}
	return mem.AlignUp(maxU64(size, MinPayload), Alignment), true
}

// Malloc allocates size payload bytes and returns the payload address.
// A size of zero allocates MinPayload bytes, matching common mallocs that
// return distinct pointers for zero-byte requests. A request whose
// aligned size would pass 2^64, or that fits no free block and whose new
// block would end past 2^64, is refused: Malloc returns NilAddr, and
// only Stats.Mallocs records the call.
func (h *Heap) Malloc(size uint64) mem.Addr {
	h.stats.Mallocs++
	size, ok := payloadSize(size)
	if !ok {
		return mem.NilAddr
	}

	i := h.takeFree(size)
	if i == nilIdx {
		// Extend the break, unless the new one would pass 2^64.
		if room := ^uint64(0) - uint64(h.brk); room < HeaderSize || room-HeaderSize < size {
			return mem.NilAddr
		}
		i = h.newRecord(h.brk+HeaderSize, size, false)
		h.linkAfter(h.last, i)
		h.brk += HeaderSize + mem.Addr(size)
		h.stats.BrkExtends++
		h.stats.GrossBytes += size + HeaderSize
		if h.stats.GrossBytes > h.stats.PeakBytes {
			h.stats.PeakBytes = h.stats.GrossBytes
		}
	}
	h.record(i)
	b := &h.slab[i]
	h.stats.LiveBytes += b.size
	h.stats.LiveBlocks++
	return b.addr
}

// takeFree pops the lowest-addressed free block that fits size, splitting
// it when the remainder can hold another block, and returns its slab
// index (nilIdx when no free block fits).
func (h *Heap) takeFree(size uint64) int32 {
	for bin := binFor(size); bin < numBins; bin++ {
		list := h.bins[bin]
		for k, i := range list {
			if h.slab[i].size < size {
				continue
			}
			copy(list[k:], list[k+1:])
			h.bins[bin] = list[:len(list)-1]
			h.slab[i].free = false
			// Split if worthwhile.
			if rest := h.slab[i].size; rest >= size+HeaderSize+MinPayload {
				h.slab[i].size = size
				r := h.newRecord(h.slab[i].addr+mem.Addr(size)+HeaderSize, rest-size-HeaderSize, true)
				h.linkAfter(i, r)
				h.pushFree(r)
			}
			return i
		}
	}
	return nilIdx
}

// binSearch returns the position of the first entry of list whose block
// starts at or above addr.
func (h *Heap) binSearch(list []int32, addr mem.Addr) int {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.slab[list[m]].addr < addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// pushFree files free block i in its bin.
func (h *Heap) pushFree(i int32) {
	bin := binFor(h.slab[i].size)
	// Keep the bin address-ordered so reuse is lowest-address-first, the
	// behaviour that interleaves recycled hot slots with cold data.
	list := h.bins[bin]
	k := h.binSearch(list, h.slab[i].addr)
	list = append(list, 0)
	copy(list[k+1:], list[k:])
	list[k] = i
	h.bins[bin] = list
}

// removeFree takes free block i out of its bin.
func (h *Heap) removeFree(i int32) {
	bin := binFor(h.slab[i].size)
	list := h.bins[bin]
	k := h.binSearch(list, h.slab[i].addr)
	if k < len(list) && list[k] == i {
		copy(list[k:], list[k+1:])
		h.bins[bin] = list[:len(list)-1]
	}
}

// Free releases the block at addr. Freeing an address the heap does not
// own returns false (callers treat that as a bug in the workload).
func (h *Heap) Free(addr mem.Addr) bool {
	i := h.find(addr)
	if i == nilIdx {
		h.stats.FailedFrees++
		return false
	}
	h.release(i)
	return true
}

// release frees live block i.
func (h *Heap) release(i int32) {
	h.stats.Frees++
	h.stats.LiveBytes -= h.slab[i].size
	h.stats.LiveBlocks--
	h.slab[i].free = true
	h.coalesce(i)
}

// coalesce merges free block i with free neighbours and files the result
// in a bin.
func (h *Heap) coalesce(i int32) {
	// Merge with next neighbour(s).
	for {
		n := h.slab[i].next
		if n == nilIdx || !h.slab[n].free {
			break
		}
		h.removeFree(n)
		h.slab[i].size += h.slab[n].size + HeaderSize
		h.dropRecord(n)
		h.stats.Coalesces++
	}
	// Merge into previous neighbour if free.
	if p := h.slab[i].prev; p != nilIdx && h.slab[p].free {
		h.removeFree(p)
		h.slab[p].size += h.slab[i].size + HeaderSize
		h.dropRecord(i)
		h.stats.Coalesces++
		h.pushFree(p)
		return
	}
	h.pushFree(i)
}

// Realloc resizes the block at addr to newSize, returning the (possibly
// moved) payload address and the number of payload bytes preserved. A nil
// addr behaves like Malloc. A refused resize returns (NilAddr, 0) and
// leaves the block at addr live and unchanged.
func (h *Heap) Realloc(addr mem.Addr, newSize uint64) (mem.Addr, uint64) {
	h.stats.Reallocs++
	if addr == mem.NilAddr {
		return h.Malloc(newSize), 0
	}
	i := h.find(addr)
	if i == nilIdx {
		h.stats.FailedFrees++
		return h.Malloc(newSize), 0
	}
	newSize, ok := payloadSize(newSize)
	if !ok {
		return mem.NilAddr, 0
	}
	old := h.slab[i].size
	if newSize <= old {
		return addr, newSize // shrink in place (no block split for simplicity)
	}
	// Malloc cannot touch live block i, so its index stays valid.
	na := h.Malloc(newSize)
	if na == mem.NilAddr {
		return mem.NilAddr, 0
	}
	h.release(i)
	return na, old
}

// SizeOf returns the payload size of the live block at addr, or 0 if addr
// is not a live payload address.
func (h *Heap) SizeOf(addr mem.Addr) uint64 {
	i := h.find(addr)
	if i == nilIdx {
		return 0
	}
	return h.slab[i].size
}

// Owns reports whether addr is a payload address the heap has ever issued
// and that is currently live.
func (h *Heap) Owns(addr mem.Addr) bool {
	return h.find(addr) != nilIdx
}

// linkAfter inserts block n after block p in address order (p == nilIdx
// makes n the only block of an empty heap).
func (h *Heap) linkAfter(p, n int32) {
	if p == nilIdx {
		h.last = n
		return
	}
	nn := h.slab[p].next
	h.slab[n].prev = p
	h.slab[n].next = nn
	h.slab[p].next = n
	if nn != nilIdx {
		h.slab[nn].prev = n
	}
	if p == h.last {
		h.last = n
	}
}

// CheckInvariants validates internal consistency; tests call it after
// randomized operation sequences. It returns an error describing the first
// violation found.
func (h *Heap) CheckInvariants() error {
	n := int32(len(h.slab))
	spare := make([]bool, n)
	for _, i := range h.spare {
		if i < 0 || i >= n {
			return fmt.Errorf("simalloc: spare index %d outside slab of %d", i, n)
		}
		if spare[i] {
			return fmt.Errorf("simalloc: spare index %d listed twice", i)
		}
		// No payload address is NilAddr, and find resolves only live
		// records, so a free record at NilAddr is unreachable from the
		// index whatever stale slots name it.
		if a := h.slab[i].addr; a != mem.NilAddr || !h.slab[i].free {
			return fmt.Errorf("simalloc: spare record %d reachable from the index at %v", i, a)
		}
		spare[i] = true
	}

	// Sort the blocks by address; they must tile [heapStart, brk) exactly
	// and the prev/next links must agree with that order and with last.
	walk := make([]int32, 0, int(n)-len(h.spare))
	for i := int32(0); i < n; i++ {
		if !spare[i] {
			walk = append(walk, i)
		}
	}
	sort.Slice(walk, func(x, y int) bool { return h.slab[walk[x]].addr < h.slab[walk[y]].addr })
	cursor := h.heapStart
	var live, liveBlocks uint64
	prev := nilIdx
	for _, i := range walk {
		b := &h.slab[i]
		if b.addr != cursor+HeaderSize {
			return fmt.Errorf("simalloc: block %v does not start at cursor %v+header", b.addr, cursor)
		}
		if !mem.IsAligned(uint64(b.addr), Alignment) {
			return fmt.Errorf("simalloc: block %v misaligned", b.addr)
		}
		if b.size < MinPayload {
			return fmt.Errorf("simalloc: block %v of size %d below the %d-byte minimum payload", b.addr, b.size, MinPayload)
		}
		if b.prev != prev {
			return fmt.Errorf("simalloc: block %v links prev %d, address order has %d", b.addr, b.prev, prev)
		}
		if prev != nilIdx && h.slab[prev].next != i {
			return fmt.Errorf("simalloc: block %v links next %d, address order has %d", h.slab[prev].addr, h.slab[prev].next, i)
		}
		if prev != nilIdx && b.free && h.slab[prev].free {
			return fmt.Errorf("simalloc: adjacent free blocks %v and %v not coalesced", h.slab[prev].addr, b.addr)
		}
		if !b.free {
			live += b.size
			liveBlocks++
			if h.find(b.addr) != i {
				return fmt.Errorf("simalloc: live block %v not reachable from the index", b.addr)
			}
		}
		cursor = b.addr + mem.Addr(b.size)
		prev = i
	}
	if prev != nilIdx && h.slab[prev].next != nilIdx {
		return fmt.Errorf("simalloc: highest block %v links next %d", h.slab[prev].addr, h.slab[prev].next)
	}
	if h.last != prev {
		return fmt.Errorf("simalloc: last is %d, highest block is %d", h.last, prev)
	}
	if cursor != h.brk {
		return fmt.Errorf("simalloc: blocks end at %v, brk is %v", cursor, h.brk)
	}
	if live != h.stats.LiveBytes {
		return fmt.Errorf("simalloc: live bytes %d != stats %d", live, h.stats.LiveBytes)
	}
	if liveBlocks != h.stats.LiveBlocks {
		return fmt.Errorf("simalloc: live blocks %d != stats %d", liveBlocks, h.stats.LiveBlocks)
	}

	// Every free block is filed exactly once, in the bin its size selects,
	// and every bin is strictly address-ordered.
	filed := make([]bool, n)
	for bin, list := range h.bins {
		for k, i := range list {
			if i < 0 || i >= n || spare[i] {
				return fmt.Errorf("simalloc: bin %d holds deleted block record %d", bin, i)
			}
			b := &h.slab[i]
			if !b.free {
				return fmt.Errorf("simalloc: bin %d holds allocated block %v", bin, b.addr)
			}
			if filed[i] {
				return fmt.Errorf("simalloc: block %v filed twice", b.addr)
			}
			filed[i] = true
			if want := binFor(b.size); want != bin {
				return fmt.Errorf("simalloc: block %v of size %d filed in bin %d, want %d", b.addr, b.size, bin, want)
			}
			if k > 0 && h.slab[list[k-1]].addr >= b.addr {
				return fmt.Errorf("simalloc: bin %d not address-ordered at %v", bin, b.addr)
			}
		}
	}
	for _, i := range walk {
		if h.slab[i].free && !filed[i] {
			return fmt.Errorf("simalloc: free block %v missing from bin %d", h.slab[i].addr, binFor(h.slab[i].size))
		}
	}

	return nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

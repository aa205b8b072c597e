package simalloc

import (
	"testing"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// Operation kinds of the differential test, in the low three bits of an
// operation byte. The next three bits pick a size class (sizeFor).
const (
	opMalloc = iota
	opMalloc2
	opFree
	opDoubleFree
	opFreeUnknown
	opRealloc
	opReallocNil
	opReallocUnknown
	numOps
)

// sizeFor decodes a request size from a size class and a 16-bit argument.
// The classes cover every bin: zero-size requests, the exact 16-byte bins,
// bin 31's 496/512 pair, unaligned small sizes, each logarithmic bin above
// 512, and sizes past the last bin's nominal bound. One class in 32 asks
// for nearly 2^64 bytes instead: sizes whose alignment or block end
// passes 2^64, and sizes that fit once or a few times.
func sizeFor(class byte, v uint16) uint64 {
	if class%32 == 31 {
		w := uint64(v >> 2)
		switch v & 3 {
		case 0:
			return ^uint64(0) - w%32
		case 1:
			return 1<<63 - w
		case 2:
			return 1<<62 + w<<4
		default:
			return 1<<40 + w
		}
	}
	switch class % 8 {
	case 0:
		return 0
	case 1:
		return 16 * (1 + uint64(v)%31)
	case 2:
		return 496 + 16*uint64(v&1)
	case 3:
		return 1 + uint64(v)%512
	case 4:
		lo := uint64(512) << (v % 16) // bin 32 + v%16 holds (lo, 2*lo]
		return lo + 1 + uint64(v>>4)%lo
	case 5:
		return 1<<25 + uint64(v)<<4
	default:
		return 16 * (1 + uint64(v)%64)
	}
}

// heapPair drives the slab heap and the reference heap in lockstep and
// fails the test at the first observable difference.
type heapPair struct {
	t    testing.TB
	h    *Heap
	ref  *refHeap
	live []mem.Addr
	dead []mem.Addr // recently freed payload addresses, for double frees
	step int

	ops  [numOps]int   // operations applied, by kind
	bins [numBins]bool // bins of the sizes requested
}

func newHeapPair(t testing.TB) *heapPair {
	return &heapPair{t: t, h: New(0x10000), ref: newRefHeap(0x10000)}
}

func (p *heapPair) fatalf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("step %d: "+format, append([]any{p.step}, args...)...)
}

// pick returns list[v % len(list)] and its position, or NilAddr when the
// list is empty.
func pick(list []mem.Addr, v uint16) (mem.Addr, int) {
	if len(list) == 0 {
		return mem.NilAddr, -1
	}
	k := int(v) % len(list)
	return list[k], k
}

func (p *heapPair) retire(k int) {
	a := p.live[k]
	p.live[k] = p.live[len(p.live)-1]
	p.live = p.live[:len(p.live)-1]
	p.dead = append(p.dead, a)
	if len(p.dead) > 64 {
		p.dead = p.dead[1:]
	}
}

// unknown returns an address that is not a payload address: the inside of
// a live block (payload + 16 is at most the next block's header), or the
// break.
func (p *heapPair) unknown(v uint16) mem.Addr {
	if a, _ := pick(p.live, v); a != mem.NilAddr {
		return a + Alignment
	}
	return p.h.Brk() + Alignment
}

func (p *heapPair) request(class byte, v uint16) uint64 {
	size := sizeFor(class, v)
	if payload, ok := payloadSize(size); ok {
		p.bins[binFor(payload)] = true
	}
	return size
}

// apply runs one encoded operation on both heaps and compares everything
// observable afterwards.
func (p *heapPair) apply(op byte, v uint16) {
	p.t.Helper()
	p.step++
	kind, class := int(op%numOps), op>>3
	p.ops[kind]++
	var got, want mem.Addr
	var gotN, wantN uint64
	var gotOK, wantOK bool
	switch kind {
	case opMalloc, opMalloc2:
		size := p.request(class, v)
		got, want = p.h.Malloc(size), p.ref.Malloc(size)
		if got == want && got != mem.NilAddr {
			p.live = append(p.live, got)
		}
	case opFree, opDoubleFree, opFreeUnknown:
		var a mem.Addr
		k := -1
		switch kind {
		case opFree:
			a, k = pick(p.live, v)
		case opDoubleFree:
			a, _ = pick(p.dead, v)
		default:
			a = p.unknown(v)
		}
		if a == mem.NilAddr {
			a = p.unknown(v)
		}
		gotOK, wantOK = p.h.Free(a), p.ref.Free(a)
		if k >= 0 && gotOK {
			p.retire(k)
		}
		got, want = a, a
	case opRealloc, opReallocNil, opReallocUnknown:
		size := p.request(class, v)
		var a mem.Addr
		k := -1
		switch kind {
		case opRealloc:
			a, k = pick(p.live, v)
		case opReallocUnknown:
			a = p.unknown(v)
		}
		got, gotN = p.h.Realloc(a, size)
		want, wantN = p.ref.Realloc(a, size)
		if got == want && gotN == wantN && got != mem.NilAddr {
			if k >= 0 && got != a {
				p.retire(k)
			}
			if k < 0 || got != a {
				p.live = append(p.live, got)
			}
		}
	}
	if got != want || gotN != wantN || gotOK != wantOK {
		p.fatalf("op %d: heap returned (%v, %d, %v), reference (%v, %d, %v)",
			kind, got, gotN, gotOK, want, wantN, wantOK)
	}
	p.compareAt(got)
	if p.step%64 == 0 {
		p.compareAll()
	}
}

// compareAt compares the heaps' break, statistics, and view of addr.
func (p *heapPair) compareAt(addr mem.Addr) {
	p.t.Helper()
	if g, w := p.h.Brk(), p.ref.Brk(); g != w {
		p.fatalf("Brk %v, reference %v", g, w)
	}
	if g, w := p.h.Stats(), p.ref.Stats(); g != w {
		p.fatalf("Stats %+v, reference %+v", g, w)
	}
	if g, w := p.h.SizeOf(addr), p.ref.SizeOf(addr); g != w {
		p.fatalf("SizeOf(%v) = %d, reference %d", addr, g, w)
	}
	if g, w := p.h.Owns(addr), p.ref.Owns(addr); g != w {
		p.fatalf("Owns(%v) = %v, reference %v", addr, g, w)
	}
}

// compareAll compares every tracked address and both heaps' invariants.
func (p *heapPair) compareAll() {
	p.t.Helper()
	for _, a := range p.live {
		p.compareAt(a)
	}
	for _, a := range p.dead {
		p.compareAt(a)
	}
	if err := p.h.CheckInvariants(); err != nil {
		p.fatalf("heap: %v", err)
	}
	if err := p.ref.CheckInvariants(); err != nil {
		p.fatalf("reference: %v", err)
	}
}

// run decodes data as a sequence of three-byte operations: an operation
// byte and a little-endian 16-bit argument.
func (p *heapPair) run(data []byte) {
	p.t.Helper()
	for len(data) >= 3 {
		p.apply(data[0], uint16(data[1])|uint16(data[2])<<8)
		data = data[3:]
	}
	p.compareAll()
}

// TestHeapMatchesReference drives seeded operation sequences through the
// slab heap and the map-based reference and requires identical results,
// break, statistics and SizeOf/Owns after every operation. Each sequence
// alternates growing and shrinking phases so the heap both extends the
// break and coalesces down to large free blocks.
func TestHeapMatchesReference(t *testing.T) {
	var ops [numOps]int
	var bins [numBins]bool
	for seed := uint64(1); seed <= 12; seed++ {
		p := newHeapPair(t)
		rng := xrand.New(seed)
		for phase := 0; phase < 8; phase++ {
			grow := phase%2 == 0
			for i := 0; i < 500; i++ {
				op := byte(rng.Uint64n(256))
				if kind := int(op % numOps); grow && (kind == opFree || kind == opDoubleFree) {
					op -= byte(kind) // a growing phase mallocs instead
				} else if !grow && kind <= opMalloc2 {
					op += opFree - byte(kind) // a shrinking phase frees instead
				}
				p.apply(op, uint16(rng.Uint64n(1<<16)))
			}
		}
		p.compareAll()
		for k := range ops {
			ops[k] += p.ops[k]
		}
		for b, hit := range p.bins {
			bins[b] = bins[b] || hit
		}
	}
	for k, n := range ops {
		if n == 0 {
			t.Errorf("operation kind %d never exercised", k)
		}
	}
	for b := 1; b < numBins; b++ { // bin 0 is below MinPayload
		if !bins[b] {
			t.Errorf("bin %d never requested", b)
		}
	}
}

// FuzzHeapMatchesReference decodes its input as an operation sequence
// (see heapPair.run) and requires the slab heap to match the reference.
func FuzzHeapMatchesReference(f *testing.F) {
	op := func(kind, class byte, v uint16) []byte {
		return []byte{class<<3 | kind, byte(v), byte(v >> 8)}
	}
	seq := func(ops ...[]byte) []byte {
		var out []byte
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	// Zero-size requests, then a double free and an unknown free.
	f.Add(seq(op(opMalloc, 0, 0), op(opMalloc, 0, 0), op(opFree, 0, 0),
		op(opDoubleFree, 0, 0), op(opFreeUnknown, 0, 1)))
	// Every exact 16-byte bin, freed alternately and refilled.
	var exact []byte
	for v := uint16(0); v < 31; v++ {
		exact = append(exact, op(opMalloc, 1, v)...)
	}
	for v := uint16(0); v < 31; v += 2 {
		exact = append(exact, op(opFree, 0, v)...)
	}
	for v := uint16(30); v < 62; v++ {
		exact = append(exact, op(opMalloc, 1, v)...)
	}
	f.Add(exact)
	// Bin 31's 496/512 pair: free a 512 block, ask for 496 from it.
	f.Add(seq(op(opMalloc, 2, 1), op(opMalloc, 1, 0), op(opFree, 0, 0),
		op(opMalloc, 2, 0), op(opMalloc, 2, 1)))
	// The log bins and a size past the last bin, split by small requests.
	var large []byte
	for v := uint16(0); v < 16; v++ {
		large = append(large, op(opMalloc, 4, v)...)
	}
	large = append(large, seq(op(opMalloc, 5, 7), op(opFree, 0, 3),
		op(opFree, 0, 9), op(opMalloc, 3, 100), op(opMalloc, 6, 40))...)
	f.Add(large)
	// Realloc grow, shrink, nil and unknown address.
	f.Add(seq(op(opMalloc, 6, 3), op(opMalloc, 6, 3), op(opRealloc, 4, 0),
		op(opRealloc, 0, 0), op(opReallocNil, 1, 5), op(opReallocUnknown, 3, 2)))
	// Requests near 2^64: a size whose alignment wraps, a break that
	// would wrap after a 2^63-byte block, reallocs refused both ways, and
	// small blocks beyond the huge ones.
	f.Add(seq(op(opMalloc, 31, 0), op(opMalloc, 6, 1), op(opMalloc, 31, 1),
		op(opMalloc, 31, 1), op(opMalloc, 6, 2), op(opRealloc, 31, 4),
		op(opRealloc, 31, 1), op(opMalloc, 31, 3), op(opFree, 0, 2),
		op(opMalloc, 3, 7), op(opFree, 0, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		newHeapPair(t).run(data)
	})
}

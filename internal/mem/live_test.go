package mem

import (
	"testing"

	"prefix/internal/xrand"
)

func TestLiveIndexInteriorLookup(t *testing.T) {
	var x LiveIndex
	x.Insert(0x1000, 64, 1)
	if v, ok := x.Find(0x1000); !ok || v != 1 {
		t.Error("start lookup failed")
	}
	if v, ok := x.Find(0x103f); !ok || v != 1 {
		t.Error("last-byte lookup failed")
	}
	if _, ok := x.Find(0x1040); ok {
		t.Error("one-past-the-end lookup should miss")
	}
	if _, ok := x.Find(0xfff); ok {
		t.Error("lookup before the start should miss")
	}
	if _, ok := x.Remove(0x1001); ok {
		t.Error("remove of an interior address should miss")
	}
	if v, ok := x.Remove(0x1000); !ok || v != 1 {
		t.Error("remove returned wrong handle")
	}
	if _, ok := x.Find(0x1000); ok {
		t.Error("removed interval still found")
	}
	if x.Len() != 0 || len(x.pages) != 0 {
		t.Errorf("index not empty: %d live, %d pages", x.Len(), len(x.pages))
	}
}

func TestLiveIndexMany(t *testing.T) {
	var x LiveIndex
	for i := 0; i < 100; i++ {
		x.Insert(Addr(0x1000+i*0x100), 0x80, i)
	}
	for i := 0; i < 100; i++ {
		base := Addr(0x1000 + i*0x100)
		if v, ok := x.Find(base + 0x40); !ok || v != i {
			t.Fatalf("interior lookup %d failed", i)
		}
		if _, ok := x.Find(base + 0x80); ok {
			t.Fatalf("gap lookup %d should miss", i)
		}
	}
}

// TestLiveIndexSemantics pins the documented edge cases: size 0 counts
// as 1, Insert at a live start replaces that interval, an interval
// ending exactly at 2^64 holds its last byte, one whose size wraps past
// 2^64 is clipped there instead of covering low addresses, and Find
// misses only when no overlapping interval holds the address.
func TestLiveIndexSemantics(t *testing.T) {
	var x LiveIndex
	x.Insert(0x2000, 0, 1)
	if v, ok := x.Find(0x2000); !ok || v != 1 {
		t.Error("zero-size interval should hold its start")
	}
	if _, ok := x.Find(0x2001); ok {
		t.Error("zero-size interval should hold one byte")
	}
	x.Insert(0x2000, 3*PageSize, 2)
	if x.Len() != 1 {
		t.Fatalf("replacing insert left %d intervals", x.Len())
	}
	if v, ok := x.Find(0x2000 + 2*PageSize + 5); !ok || v != 2 {
		t.Error("replacement interval not found on its last page")
	}
	x.Insert(0x2000, 8, 3)
	if _, ok := x.Find(0x2000 + PageSize); ok {
		t.Error("shrinking replacement left a stale span behind")
	}

	top := ^Addr(0) - 63
	x.Insert(top, 64, 4)
	for _, a := range []Addr{top, top + 32, ^Addr(0)} {
		if v, ok := x.Find(a); !ok || v != 4 {
			t.Errorf("interval ending at 2^64: Find(%v) = %d, %v", a, v, ok)
		}
	}
	x.Insert(top-64, 1<<20, 5) // wraps past 2^64
	if v, ok := x.Find(top - 1); !ok || v != 5 {
		t.Errorf("wrapping interval: Find(start+63) = %d, %v", v, ok)
	}
	if _, ok := x.Find(0); ok {
		t.Error("wrapping interval covers address 0")
	}

	// Overlapping intervals (only a malformed trace makes them): an
	// address past a nested interval is still found in the outer one.
	x.Insert(0x9000, 0x100, 6)
	x.Insert(0x9010, 0x10, 7)
	if v, ok := x.Find(0x9050); !ok || v != 6 {
		t.Errorf("address past a nested interval: Find = %d, %v; want 6", v, ok)
	}
	if v, ok := x.Find(0x9018); !ok || (v != 6 && v != 7) {
		t.Errorf("address in both intervals: Find = %d, %v", v, ok)
	}
}

// TestLiveIndexHugeIntervalBounded: an untrusted trace can claim any
// size. Intervals touching more than spillPages pages go to the spill
// tier, so neither a 2^62-byte interval nor one that wraps past 2^64
// adds a page entry, and both are still found.
func TestLiveIndexHugeIntervalBounded(t *testing.T) {
	var x LiveIndex
	x.Insert(0x1000, 1<<62, 1)
	x.Insert(^Addr(0)-100, ^uint64(0)-5, 2)
	x.Insert(0x10_0000_0000_0000, 17*PageSize, 3)
	if len(x.pages) > 2*spillPages {
		t.Fatalf("huge intervals built %d page entries", len(x.pages))
	}
	for _, c := range []struct {
		addr Addr
		v    int
	}{{0x1000, 1}, {0x1000 + 1<<61, 1}, {^Addr(0), 2}, {0x10_0000_0000_0000 + 16*PageSize, 3}} {
		if v, ok := x.Find(c.addr); !ok || v != c.v {
			t.Errorf("Find(%v) = %d, %v; want %d", c.addr, v, ok, c.v)
		}
	}
	if _, ok := x.Find(0x1000 + 1<<62); ok {
		t.Error("one past a huge interval should miss")
	}
	for _, a := range []Addr{0x1000, ^Addr(0) - 100, 0x10_0000_0000_0000} {
		if _, ok := x.Remove(a); !ok {
			t.Errorf("Remove(%v) missed", a)
		}
	}
	if x.Len() != 0 || len(x.pages) != 0 || len(x.spill) != 0 {
		t.Fatalf("index not empty: %d live, %d pages, %d spilled", x.Len(), len(x.pages), len(x.spill))
	}
}

// TestLiveIndexMatchesOracle drives LiveIndex and the original sorted-
// slice index through seeded random insert/remove/realloc sequences of
// disjoint, non-wrapping intervals — page-crossing, spill-sized, zero-
// size, ending at 2^64, and reusing freed or live starts — and compares
// Find at every start, interior byte, last byte, one past the end and
// gap after every operation, along with Remove's result and Len.
func TestLiveIndexMatchesOracle(t *testing.T) {
	type iv struct {
		start Addr
		size  uint64
	}
	const window = 512 * PageSize
	for seed := uint64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		var x LiveIndex
		o := newIntervalIndex()
		var live []iv
		var freed []Addr
		hits := map[string]int{}
		next := 0

		lastOf := func(v iv) Addr {
			if v.size == 0 {
				return v.start
			}
			return v.start + Addr(v.size-1)
		}
		// fits reports whether c neither wraps past 2^64 nor overlaps a
		// live interval other than live[skip].
		fits := func(c iv, skip int) bool {
			if lastOf(c) < c.start {
				return false
			}
			for j, v := range live {
				if j != skip && c.start <= lastOf(v) && v.start <= lastOf(c) {
					return false
				}
			}
			return true
		}
		drawSize := func() uint64 {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1, 2, 3:
				return 1 + rng.Uint64n(256)
			case 4, 5:
				return 2000 + rng.Uint64n(3*PageSize)
			case 6:
				return spillPages*PageSize + rng.Uint64n(8*PageSize)
			default:
				return 1 + rng.Uint64n(64)
			}
		}
		drawStart := func(size uint64) Addr {
			if size == 0 {
				size = 1
			}
			switch {
			case rng.Intn(40) == 0:
				hits["top"]++
				return ^Addr(0) - Addr(size) + 1
			case len(freed) > 0 && rng.Intn(4) == 0:
				hits["reuse"]++
				return freed[rng.Intn(len(freed))]
			default:
				return 0x10_0000 + Addr(rng.Uint64n(window))&^7
			}
		}
		check := func(op string) {
			t.Helper()
			if x.Len() != o.len() {
				t.Fatalf("seed %d after %s: Len %d, oracle %d", seed, op, x.Len(), o.len())
			}
			probe := func(a Addr) {
				gv, gok := x.Find(a)
				wv, wok := o.find(a)
				if gv != wv || gok != wok {
					t.Fatalf("seed %d after %s: Find(%v) = %d, %v; oracle %d, %v", seed, op, a, gv, gok, wv, wok)
				}
			}
			for _, v := range live {
				last := lastOf(v)
				probe(v.start)
				probe(v.start + Addr(uint64(last-v.start)/2))
				probe(last)
				probe(last + 1)
				probe(v.start - 1)
			}
			for k := 0; k < 8; k++ {
				probe(0x10_0000 + Addr(rng.Uint64n(window)))
			}
			probe(0)
			probe(^Addr(0))
		}

		for step := 0; step < 1500; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 4 || len(live) == 0:
				op = "insert"
				size := drawSize()
				c := iv{drawStart(size), size}
				if !fits(c, -1) {
					continue
				}
				next++
				x.Insert(c.start, c.size, next)
				o.insert(c.start, c.size, next)
				live = append(live, c)
			case r < 7:
				op = "remove"
				j := rng.Intn(len(live))
				gv, gok := x.Remove(live[j].start)
				wv, wok := o.remove(live[j].start)
				if gv != wv || gok != wok {
					t.Fatalf("seed %d: Remove = %d, %v; oracle %d, %v", seed, gv, gok, wv, wok)
				}
				freed = append(freed, live[j].start)
				live = append(live[:j], live[j+1:]...)
			case r == 7:
				op = "realloc"
				j := rng.Intn(len(live))
				size := drawSize()
				c := iv{drawStart(size), size}
				if !fits(c, j) {
					continue
				}
				gv, _ := x.Remove(live[j].start)
				wv, _ := o.remove(live[j].start)
				x.Insert(c.start, c.size, gv)
				o.insert(c.start, c.size, wv)
				live[j] = c
			case r == 8:
				op = "replace"
				j := rng.Intn(len(live))
				c := iv{live[j].start, drawSize()}
				if !fits(c, j) {
					continue
				}
				next++
				x.Insert(c.start, c.size, next)
				o.insert(c.start, c.size, next)
				live[j] = c
			default:
				op = "remove-unknown"
				a := 0x10_0000 + Addr(rng.Uint64n(window))
				gv, gok := x.Remove(a)
				wv, wok := o.remove(a)
				if gv != wv || gok != wok {
					t.Fatalf("seed %d: Remove(%v) = %d, %v; oracle %d, %v", seed, a, gv, gok, wv, wok)
				}
				if gok {
					for j := range live {
						if live[j].start == a {
							live = append(live[:j], live[j+1:]...)
							break
						}
					}
				}
			}
			hits[op]++
			if len(x.spill) > 0 {
				hits["spill"]++
			}
			check(op)
		}
		for _, k := range []string{"insert", "remove", "realloc", "replace", "remove-unknown", "top", "reuse", "spill"} {
			if hits[k] == 0 {
				t.Errorf("seed %d never exercised %s", seed, k)
			}
		}
	}
}

// TestLiveIndexFindZeroAllocs: Find sits on the attribution-on access
// path (machine.access → attrib.resolve), so it must not allocate.
func TestLiveIndexFindZeroAllocs(t *testing.T) {
	var x LiveIndex
	for i := 0; i < 256; i++ {
		x.Insert(Addr(0x1_0000+i*96), 80, i)
	}
	x.Insert(0x100_0000, 64*PageSize, 999)
	var i uint64
	if n := testing.AllocsPerRun(1000, func() {
		x.Find(Addr(0x1_0000 + i*37%(256*96)))
		x.Find(Addr(0x100_0000 + i*4099))
		i++
	}); n != 0 {
		t.Errorf("Find allocates %.2f per call pair", n)
	}
}

// liveModel is FuzzLiveIndex's linear-scan model of the documented
// semantics: start → interval, size 0 counted as 1, clipped at 2^64.
type liveModel map[Addr]struct {
	size uint64
	v    int
}

func (m liveModel) contains(start, addr Addr) bool {
	iv, ok := m[start]
	if !ok {
		return false
	}
	size := iv.size
	if size == 0 {
		size = 1
	}
	return addr >= start && uint64(addr-start) < size
}

// FuzzLiveIndex decodes arbitrary bytes into Insert/Remove/Find
// operations over a small, page-crowded address space plus the top of
// the address space, with sizes from one byte to ones that wrap past
// 2^64, so intervals overlap, share starts, wrap and spill. Against a
// linear-scan model it checks that nothing panics, that the page table
// holds at most spillPages spans per live interval, that Remove and Len
// agree with the model, and that Find returns an interval containing
// the address exactly when the model has one. A second index fed the
// same operations must answer every Find identically.
func FuzzLiveIndex(f *testing.F) {
	f.Add([]byte{0, 1, 4, 3, 1, 9, 2, 1, 0})
	f.Add([]byte{0, 1, 0x41, 0, 2, 0x42, 3, 1, 0x80, 2, 1, 0})
	f.Add([]byte{0, 0x81, 3, 0, 0xfe, 7, 3, 0x81, 0x40, 3, 0x02, 0})
	f.Add([]byte{1, 5, 0x22, 1, 5, 0x01, 3, 5, 0x20, 2, 5, 0, 3, 5, 0})
	f.Add([]byte{})

	f.Fuzz(checkLiveOps)
}

// checkLiveOps is FuzzLiveIndex's body.
func checkLiveOps(t *testing.T, data []byte) {
	addrOf := func(b byte) Addr {
		if b&0x80 != 0 {
			return ^Addr(0) - Addr(b&0x7f)*0x400
		}
		return 0x1_0000 + Addr(b)*0x300
	}
	sizeOf := func(c byte) uint64 {
		switch c % 4 {
		case 0:
			return uint64(c)
		case 1:
			return uint64(c) * 0x100
		case 2:
			return uint64(c) << 16
		default:
			return ^uint64(0) - uint64(c)
		}
	}
	if len(data) > 3*128 {
		data = data[:3*128] // the checks are quadratic in live intervals
	}
	var x, twin LiveIndex
	model := liveModel{}
	next := 0
	for ; len(data) >= 3; data = data[3:] {
		op, a, c := data[0], addrOf(data[1]), data[2]
		switch op % 4 {
		case 0, 1:
			next++
			x.Insert(a, sizeOf(c), next)
			twin.Insert(a, sizeOf(c), next)
			model[a] = struct {
				size uint64
				v    int
			}{sizeOf(c), next}
		case 2:
			v, ok := x.Remove(a)
			twin.Remove(a)
			iv, want := model[a]
			if ok != want || (ok && v != iv.v) {
				t.Fatalf("Remove(%v) = %d, %v; model %d, %v", a, v, ok, iv.v, want)
			}
			delete(model, a)
		default:
			a += Addr(c) * 0x31
		}
		if x.Len() != len(model) {
			t.Fatalf("Len %d, model %d", x.Len(), len(model))
		}
		entries := 0
		for _, spans := range x.pages {
			entries += len(spans)
		}
		if len(x.pages) > spillPages*len(model) || entries > spillPages*len(model) {
			t.Fatalf("%d pages, %d spans for %d live intervals", len(x.pages), entries, len(model))
		}
		probes := []Addr{a, a - 1, a + 0x7ff, a + PageSize, 0, ^Addr(0)}
		for s := range model {
			probes = append(probes, s, s+Addr(c), s+17*PageSize)
		}
		for _, p := range probes {
			v, ok := x.Find(p)
			if tv, tok := twin.Find(p); tv != v || tok != ok {
				t.Fatalf("Find(%v) not deterministic: %d, %v vs %d, %v", p, v, ok, tv, tok)
			}
			held, match := false, false
			for s, iv := range model {
				if model.contains(s, p) {
					held = true
					match = match || (ok && iv.v == v)
				}
			}
			if ok != held {
				t.Fatalf("Find(%v) = %d, %v; model holds it: %v", p, v, ok, held)
			}
			if ok && !match {
				t.Fatalf("Find(%v) = %d, an interval that does not contain it", p, v)
			}
		}
	}
}

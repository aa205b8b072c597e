package prefix

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"prefix/internal/context"
	"prefix/internal/mem"
	"prefix/internal/obs"
	"prefix/internal/simalloc"
	"prefix/internal/xrand"
)

// draws decodes fuzz input into bounded choices; once the input is
// exhausted every draw is 0.
type draws struct{ b []byte }

// n returns a value in [0, k).
func (d *draws) n(k int) int {
	if len(d.b) == 0 {
		return 0
	}
	v := int(d.b[0]) % k
	d.b = d.b[1:]
	return v
}

func (d *draws) more() bool { return len(d.b) > 0 }

// Sites 1..fuzzSites may be wired to counters; fuzzSites+1 never is.
const (
	fuzzSites = 6
	fuzzIDs   = 12 // static slots are drawn for instance ids 1..fuzzIDs
)

// drawPlan builds a valid plan: Fixed, Regular and All counters, static
// slots (also for ids the pattern does not match), recycling rings,
// hybrid signatures, sites sharing a counter, and gaps in the region
// that no slot covers. It returns the plan and every slot address.
func drawPlan(d *draws) (*Plan, []mem.Addr) {
	p := &Plan{Benchmark: "fuzz", Variant: VariantHot, SiteCounter: make(map[mem.SiteID]int)}
	var slots []mem.Addr
	var off uint64
	for i, n := 0, 1+d.n(4); i < n; i++ {
		c := PlanCounter{Kind: context.KindFixed + context.PatternKind(d.n(3))}
		switch c.Kind {
		case context.KindFixed:
			for id := mem.Instance(1); id <= fuzzIDs; id++ {
				if d.n(3) == 0 {
					c.Set = append(c.Set, id)
				}
			}
		case context.KindRegular:
			c.Start = mem.Instance(1 + d.n(6))
			c.Step = mem.Instance(d.n(4))
			c.Count = uint64(d.n(5))
		}
		if d.n(3) == 0 {
			r := &RecyclePlan{N: 1 + d.n(4), SlotSize: 16 * uint64(1+d.n(8)), Base: off}
			for s := 0; s < r.N; s++ {
				slots = append(slots, RegionBase+mem.Addr(r.Base+uint64(s)*r.SlotSize))
			}
			off += uint64(r.N) * r.SlotSize
			c.Recycle = r
		} else {
			c.SlotOf = make(map[mem.Instance]Slot)
			for id := mem.Instance(1); id <= fuzzIDs; id++ {
				if d.n(4) == 0 {
					continue
				}
				off += 16 * uint64(d.n(2)) // a gap no slot covers
				s := Slot{Offset: off, Size: 8 * uint64(1+d.n(16))}
				c.SlotOf[id] = s
				slots = append(slots, RegionBase+mem.Addr(s.Offset))
				off += s.Size
			}
			if d.n(3) == 0 {
				c.Sigs = make(map[mem.Instance]mem.StackSig)
				for id := mem.Instance(1); id <= fuzzIDs; id++ {
					if d.n(2) == 0 {
						c.Sigs[id] = mem.StackSig(d.n(3))
					}
				}
			}
		}
		p.Counters = append(p.Counters, c)
	}
	for site := mem.SiteID(1); site <= fuzzSites; site++ {
		if ci := d.n(len(p.Counters) + 1); ci < len(p.Counters) {
			p.SiteCounter[site] = ci
			p.Counters[ci].Sites = append(p.Counters[ci].Sites, site)
		}
	}
	p.RegionSize = off + 16*uint64(d.n(3))
	return p, slots
}

// drawSize returns a request size: zero, small, slot-sized or larger
// than any slot.
func drawSize(d *draws) uint64 {
	switch d.n(4) {
	case 0:
		return uint64(d.n(2))
	case 1:
		return 1 + uint64(d.n(32))
	case 2:
		return 8 * uint64(1+d.n(16))
	default:
		return 129 + uint64(d.n(200))
	}
}

// allocPair drives Allocator and refAllocator in lockstep and fails the
// test at the first observable difference.
type allocPair struct {
	t     *testing.T
	a     *Allocator
	ref   *refAllocator
	slots []mem.Addr
	live  []mem.Addr // addresses handed out and not yet freed or moved
	dead  []mem.Addr // addresses freed or moved away
	step  int
}

func (p *allocPair) check(op string, got, want mem.Addr, gotN, wantN uint64) {
	p.t.Helper()
	if got != want || gotN != wantN {
		p.t.Fatalf("step %d %s: allocator returned (%v, %d), reference (%v, %d)", p.step, op, got, gotN, want, wantN)
	}
	if g, w := p.a.Capture(), p.ref.Capture(); g != w {
		p.t.Fatalf("step %d %s: Capture %+v, reference %+v", p.step, op, g, w)
	}
}

// retire moves live[k] to the dead list.
func (p *allocPair) retire(k int) {
	p.dead = append(p.dead, p.live[k])
	p.live = slices.Delete(p.live, k, k+1)
}

// target picks the address a free or realloc operates on: live, stale,
// a slot or region offset that may never have been handed out, or an
// unknown heap address. k is its index in live, or -1.
func (p *allocPair) target(d *draws) (addr mem.Addr, k int) {
	switch d.n(4) {
	case 0, 1:
		if len(p.live) > 0 {
			k = d.n(len(p.live))
			return p.live[k], k
		}
	case 2:
		if len(p.dead) > 0 {
			return p.dead[d.n(len(p.dead))], -1
		}
	}
	if d.n(2) == 0 && len(p.slots) > 0 {
		return p.slots[d.n(len(p.slots))], -1
	}
	if d.n(2) == 0 {
		return RegionBase + mem.Addr(8*d.n(64)), -1
	}
	return simalloc.HeapBase + mem.Addr(16*d.n(64)), -1
}

func (p *allocPair) apply(d *draws) {
	p.t.Helper()
	p.step++
	switch d.n(3) {
	case 0:
		site, stack, size := mem.SiteID(1+d.n(fuzzSites+1)), mem.StackSig(d.n(3)), drawSize(d)
		got, gotN := p.a.Malloc(site, stack, size)
		want, wantN := p.ref.Malloc(site, stack, size)
		p.check("malloc", got, want, gotN, wantN)
		p.live = append(p.live, got)
	case 1:
		addr, k := p.target(d)
		p.check("free", addr, addr, p.a.Free(addr), p.ref.Free(addr))
		if k >= 0 {
			p.retire(k)
		}
	default:
		addr, k := p.target(d)
		size := drawSize(d)
		got, gotN := p.a.Realloc(addr, size)
		want, wantN := p.ref.Realloc(addr, size)
		p.check("realloc", got, want, gotN, wantN)
		if got != addr {
			if k >= 0 {
				p.retire(k)
			}
			p.live = append(p.live, got)
		}
	}
}

// published returns everything Publish writes for alloc.
func published(t *testing.T, publish func(*obs.Registry, ...string)) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	publish(reg, "benchmark", "fuzz")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzAllocatorMatchesReference is the differential test of the
// one-live-set runtime against refAllocator: on a random valid plan and
// a random sequence of mallocs (fitting and oversized), frees (of live,
// stale, never-handed-out region and heap addresses) and reallocs (in
// place and out of the region), every address, instruction cost and
// Capture must agree after every operation, and Publish and PeakBytes
// at the end.
func FuzzAllocatorMatchesReference(f *testing.F) {
	rng := xrand.New(26)
	for i := 0; i < 64; i++ {
		seed := make([]byte, 64+rng.Intn(1024))
		for j := range seed {
			seed[j] = byte(rng.Uint64())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &draws{b: data}
		plan, slots := drawPlan(d)
		if err := plan.Validate(); err != nil {
			t.Fatalf("drawn plan is invalid: %v", err)
		}
		p := &allocPair{t: t, a: NewAllocator(plan, cost()), ref: newRefAllocator(plan, cost()), slots: slots}
		for d.more() && p.step < 2048 {
			p.apply(d)
		}
		if g, w := published(t, p.a.Publish), published(t, p.ref.Publish); !bytes.Equal(g, w) {
			t.Fatalf("Publish wrote\n%s\nreference wrote\n%s", g, w)
		}
		if g, w := p.a.PeakBytes(), p.ref.PeakBytes(); g != w {
			t.Fatalf("PeakBytes %d, reference %d", g, w)
		}
	})
}

// TestAllocatorFarSites: a plan read from JSON may wire any site id, up
// to the largest a SiteID holds. Such ids must not size the allocator's
// dense site table, and mallocs at them, at their uninstrumented
// neighbours and at small sites must behave as in refAllocator.
func TestAllocatorFarSites(t *testing.T) {
	in := &Plan{
		Benchmark: "far",
		Variant:   VariantHot,
		Counters: []PlanCounter{
			{Kind: context.KindAll, Recycle: &RecyclePlan{N: 2, SlotSize: 64}},
			{Kind: context.KindFixed, Set: []mem.Instance{1, 3}, SlotOf: map[mem.Instance]Slot{1: {Offset: 128, Size: 32}, 3: {Offset: 160, Size: 32}}},
		},
		SiteCounter: map[mem.SiteID]int{math.MaxUint32: 0, math.MaxUint32 - 2: 1, denseSites: 1, 3: 0},
		RegionSize:  192,
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	plan, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := &allocPair{t: t, a: NewAllocator(plan, cost()), ref: newRefAllocator(plan, cost())}
	if n := len(p.a.sites); n != 4 {
		t.Fatalf("dense site table has %d entries, want 4 (sites 0..3)", n)
	}
	sites := []mem.SiteID{math.MaxUint32, math.MaxUint32 - 1, math.MaxUint32 - 2, denseSites + 1, denseSites, denseSites - 1, 4, 3, 0}
	for round := 0; round < 4; round++ {
		for _, site := range sites {
			p.step++
			got, gotN := p.a.Malloc(site, 0, 24)
			want, wantN := p.ref.Malloc(site, 0, 24)
			p.check("malloc", got, want, gotN, wantN)
		}
	}
	if c := p.a.Capture(); c.StaticCaptured != 2 || c.RecycledCaptured != 2 {
		t.Errorf("captured %d static and %d recycled, want 2 and 2", c.StaticCaptured, c.RecycledCaptured)
	}
}

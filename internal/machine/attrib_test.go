package machine

import (
	"strings"
	"testing"

	"prefix/internal/mem"
	"prefix/internal/obs"
	"prefix/internal/simalloc"
	"prefix/internal/xrand"
)

// heapAlloc adapts the address-reusing simalloc heap to the Allocator
// interface so attribution tests exercise free-list address reuse, which
// the bump allocator never does.
type heapAlloc struct{ h *simalloc.Heap }

func newHeapAlloc() *heapAlloc { return &heapAlloc{h: simalloc.New(0x1_0000)} }

func (a *heapAlloc) Name() string { return "heap" }
func (a *heapAlloc) Malloc(site mem.SiteID, stack mem.StackSig, size uint64) (mem.Addr, uint64) {
	return a.h.Malloc(size), 100
}
func (a *heapAlloc) Free(addr mem.Addr) uint64 { a.h.Free(addr); return 50 }
func (a *heapAlloc) Realloc(addr mem.Addr, size uint64) (mem.Addr, uint64) {
	na, _ := a.h.Realloc(addr, size)
	return na, 150
}

// driveAttribWorkload runs a deterministic malloc/free/realloc/access mix
// against env: small and multi-page objects across several sites, frees
// and reallocs, plus stray accesses outside any live allocation.
func driveAttribWorkload(env Env, seed uint64) {
	rng := xrand.New(seed)
	type liveObj struct {
		addr mem.Addr
		size uint64
	}
	var live []liveObj
	for i := 0; i < 30000; i++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0:
			site := mem.SiteID(rng.Intn(7) + 1)
			size := uint64(rng.Intn(9000) + 1) // up to ~3 pages
			a := env.Malloc(site, size)
			live = append(live, liveObj{a, size})
		case op < 7:
			o := live[rng.Intn(len(live))]
			env.Read(o.addr+mem.Addr(rng.Uint64()%o.size), 8)
			env.Write(o.addr, 4)
		case op == 7:
			j := rng.Intn(len(live))
			env.Free(live[j].addr)
			live = append(live[:j], live[j+1:]...)
		case op == 8:
			j := rng.Intn(len(live))
			size := uint64(rng.Intn(9000) + 1)
			live[j].addr = env.Realloc(live[j].addr, size)
			live[j].size = size
		default:
			// Untracked traffic: globals/stack stand-ins far from the heap.
			env.Read(mem.Addr(0xdead_0000+rng.Uint64()%4096), 8)
		}
	}
	for _, o := range live {
		env.Free(o.addr)
	}
}

// TestAttribSumInvariant: the per-site cells must sum to the aggregate
// hierarchy Counts exactly — every access's delta lands in one cell.
func TestAttribSumInvariant(t *testing.T) {
	m := New(newHeapAlloc(), cfg(), WithAttribution())
	driveAttribWorkload(m, 7)
	mm := m.Finish()
	at := m.Attrib()
	if !at.Enabled {
		t.Fatal("attribution machine returned disabled snapshot")
	}
	if got := at.Total(); got != mm.Cache {
		t.Fatalf("attributed sum %+v != aggregate Counts %+v", got, mm.Cache)
	}
	if len(at.Top(0)) < 7 {
		t.Fatalf("expected 7 real sites, got %d", len(at.Top(0)))
	}
	if other, ok := at.Of(0); !ok || other.Counts.Accesses == 0 {
		t.Fatalf("sentinel cell missing or empty: %+v ok=%v", other, ok)
	}
}

// TestAttribDifferential: attribution-on and -off runs of the same
// workload must produce identical Metrics — observation cannot perturb
// the simulation.
func TestAttribDifferential(t *testing.T) {
	off := New(newHeapAlloc(), cfg())
	on := New(newHeapAlloc(), cfg(), WithAttribution())
	driveAttribWorkload(off, 11)
	driveAttribWorkload(on, 11)
	mOff, mOn := off.Finish(), on.Finish()
	if mOff != mOn {
		t.Fatalf("attribution changed the run:\noff %+v\non  %+v", mOff, mOn)
	}
	if m := New(newHeapAlloc(), cfg()).Attrib(); m.Enabled || m.Sites != nil {
		t.Fatalf("attribution-off snapshot not zero: %+v", m)
	}
}

// TestAttribSiteResolution pins the address→site mapping: accesses to a
// live object charge its site, freed memory and foreign addresses charge
// the sentinel, and realloc moves the object (keeping its site) even
// across a page boundary.
func TestAttribSiteResolution(t *testing.T) {
	m := New(&bumpAlloc{}, cfg(), WithAttribution())

	a := m.Malloc(3, 64)
	for i := 0; i < 10; i++ {
		m.Read(a, 8)
	}
	b := m.Malloc(5, 3*mem.PageSize) // straddles ≥3 pages
	m.Read(b+mem.Addr(2*mem.PageSize)+17, 8)

	// Realloc keeps site 5; the bump allocator always moves.
	b2 := m.Realloc(b, 5*mem.PageSize)
	if b2 == b {
		t.Fatal("bump realloc did not move")
	}
	m.Read(b2+mem.Addr(4*mem.PageSize), 8)
	m.Read(b, 8) // old range: now unattributed

	m.Free(a)
	m.Read(a, 8) // freed: unattributed
	m.Read(0xffff_0000, 8)

	at := m.Attrib()
	want := map[mem.SiteID]uint64{0: 3, 3: 10, 5: 2}
	for site, accesses := range want {
		s, ok := at.Of(site)
		if !ok || s.Counts.Accesses != accesses {
			t.Errorf("site %d: got %+v ok=%v, want %d accesses", site, s.Counts, ok, accesses)
		}
	}
	if total, sum := m.Finish().Cache, at.Total(); total != sum {
		t.Fatalf("sum invariant broke: %+v != %+v", sum, total)
	}
}

// TestAttribSameAddressReuse: free then re-malloc at the same address
// (recycling rings do this constantly) must re-attribute to the new site.
func TestAttribSameAddressReuse(t *testing.T) {
	alloc := newHeapAlloc()
	m := New(alloc, cfg(), WithAttribution())
	a := m.Malloc(1, 64)
	m.Read(a, 8)
	m.Free(a)
	b := m.Malloc(2, 64)
	if a != b {
		t.Skipf("heap did not reuse the address (%v vs %v)", a, b)
	}
	m.Read(b, 8)
	at := m.Attrib()
	s1, _ := at.Of(1)
	s2, _ := at.Of(2)
	if s1.Counts.Accesses != 1 || s2.Counts.Accesses != 1 {
		t.Fatalf("address reuse misattributed: site1=%+v site2=%+v", s1.Counts, s2.Counts)
	}
}

// TestAttributionOffLoopZeroAllocs guards the tentpole contract: a
// machine built without WithAttribution pays only a nil check — the
// malloc/access/free loop stays at 0 allocs/op.
func TestAttributionOffLoopZeroAllocs(t *testing.T) {
	m := New(&bumpAlloc{}, cfg())
	var i uint64
	if n := testing.AllocsPerRun(2000, func() {
		a := m.Malloc(1, 128)
		m.Write(a, 8)
		m.Read(a+mem.Addr(i%64), 8)
		m.Free(a)
		i++
	}); n != 0 {
		t.Errorf("attribution-off loop allocates %.2f per iteration", n)
	}
}

// TestAttributionOnReadLoopZeroAllocs: with attribution on, a steady
// stream of reads (each resolved through the live-allocation index)
// must not allocate either.
func TestAttributionOnReadLoopZeroAllocs(t *testing.T) {
	m := New(&bumpAlloc{}, cfg(), WithAttribution())
	var objs []mem.Addr
	for i := 0; i < 64; i++ {
		objs = append(objs, m.Malloc(mem.SiteID(i%5+1), uint64(48+i*200)))
	}
	var i uint64
	if n := testing.AllocsPerRun(2000, func() {
		a := objs[i%uint64(len(objs))]
		m.Read(a+mem.Addr(i%48), 8)
		m.Read(0xdead_0000+mem.Addr(i%4096), 8) // unattributed
		i++
	}); n != 0 {
		t.Errorf("attribution-on read loop allocates %.2f per iteration", n)
	}
}

// TestAttribTopOfAddressSpace: an allocation ending exactly at 2^64 is
// still charged to its site. Its end address wraps to 0, which once made
// every access inside it look unattributed.
func TestAttribTopOfAddressSpace(t *testing.T) {
	m := New(&bumpAlloc{next: 0xffff_ffff_ffff_ff80}, cfg(), WithAttribution())
	a := m.Malloc(7, 64)
	if a != 0xffff_ffff_ffff_ffc0 {
		t.Fatalf("allocator served %v", a)
	}
	m.Read(a, 8)
	m.Read(a+56, 8)
	at := m.Attrib()
	site, _ := at.Of(7)
	other, _ := at.Of(0)
	if site.Counts.Accesses != 2 || other.Counts.Accesses != 0 {
		t.Fatalf("site7=%d other=%d, want site7=2 other=0", site.Counts.Accesses, other.Counts.Accesses)
	}
}

// TestAttribPublish: the snapshot exports the prefix_attrib_* family with
// per-site labels and an "other" sentinel label; a nil registry or a
// disabled snapshot is a no-op.
func TestAttribPublish(t *testing.T) {
	m := New(&bumpAlloc{}, cfg(), WithAttribution())
	a := m.Malloc(4, 64)
	m.Read(a, 8)
	m.Read(0xffff_0000, 8)
	m.Finish()

	reg := obs.NewRegistry()
	at := m.Attrib()
	at.Publish(reg, "benchmark", "t")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`prefix_attrib_accesses_total{benchmark="t",site="4"}`,
		`prefix_attrib_llc_misses_total{benchmark="t",site="other"}`,
		`prefix_attrib_l1_misses_total`,
		`prefix_attrib_tlb_misses_total`,
		`prefix_attrib_stall_cycles`,
		`prefix_attrib_llc_miss_share`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("published series missing %q in:\n%s", want, out)
		}
	}
	at.Publish(nil)             // nil registry: no-op
	AttribCounts{}.Publish(reg) // disabled snapshot: no-op
}

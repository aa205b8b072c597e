package prefix

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"prefix/internal/cachesim"
	"prefix/internal/context"
	"prefix/internal/mem"
	"prefix/internal/obs"
)

// behaviourPlan builds a fresh plan with every PlanCounter field set, so
// each mutation below changes a populated value.
func behaviourPlan() *Plan {
	return &Plan{
		Benchmark:  "test",
		Variant:    VariantHot,
		RegionSize: 512,
		Counters: []PlanCounter{
			{
				Sites:  []mem.SiteID{1, 2},
				Kind:   context.KindFixed,
				Set:    []mem.Instance{1, 3},
				SlotOf: map[mem.Instance]Slot{1: {Offset: 0, Size: 64}, 3: {Offset: 64, Size: 32}},
				Sigs:   map[mem.Instance]mem.StackSig{1: 11, 3: 33},
			},
			{
				Sites:   []mem.SiteID{5},
				Kind:    context.KindRegular,
				Start:   2,
				Step:    3,
				Count:   4,
				Recycle: &RecyclePlan{N: 2, SlotSize: 64, Base: 128},
			},
		},
		SiteCounter:   map[mem.SiteID]int{1: 0, 2: 0, 5: 1},
		PlacedObjects: 2,
		HDSObjects:    1,
		Order:         []mem.ObjectID{4, 7},
	}
}

// planBehaviourMutations changes one Allocator-visible Plan field each;
// planReportingMutations one reporting-only field each. Every Plan field
// must appear in exactly one of the two.
var planBehaviourMutations = map[string]func(p *Plan){
	"RegionSize":  func(p *Plan) { p.RegionSize++ },
	"Counters":    func(p *Plan) { p.Counters = append(p.Counters, PlanCounter{Kind: context.KindAll}) },
	"SiteCounter": func(p *Plan) { p.SiteCounter[2] = 1 },
}

var planReportingMutations = map[string]func(p *Plan){
	"Benchmark":     func(p *Plan) { p.Benchmark = "other" },
	"Variant":       func(p *Plan) { p.Variant = VariantHDSHot },
	"PlacedObjects": func(p *Plan) { p.PlacedObjects++ },
	"HDSObjects":    func(p *Plan) { p.HDSObjects++ },
	"Order":         func(p *Plan) { p.Order = p.Order[:1] },
}

// counterMutations changes one PlanCounter field each (all of them are
// read by the Allocator); several fields have more than one case.
var counterMutations = map[string][]func(c []PlanCounter){
	"Sites": {func(c []PlanCounter) { c[0].Sites = c[0].Sites[:1] }},
	"Kind":  {func(c []PlanCounter) { c[0].Kind = context.KindAll }},
	"Set":   {func(c []PlanCounter) { c[0].Set = []mem.Instance{1, 4} }},
	"Start": {func(c []PlanCounter) { c[1].Start++ }},
	"Step":  {func(c []PlanCounter) { c[1].Step++ }},
	"Count": {func(c []PlanCounter) { c[1].Count++ }},
	"SlotOf": {
		func(c []PlanCounter) { c[0].SlotOf[3] = Slot{Offset: 64, Size: 16} },
		func(c []PlanCounter) { c[0].SlotOf[5] = Slot{Offset: 96, Size: 16} },
	},
	"Recycle": {
		func(c []PlanCounter) { c[1].Recycle.N = 1 },
		func(c []PlanCounter) { c[1].Recycle.Base = 192 },
		func(c []PlanCounter) { c[1].Recycle = nil },
	},
	"Sigs": {
		func(c []PlanCounter) { c[0].Sigs[3] = 34 },
		// An empty map still arms the hybrid check; nil does not.
		func(c []PlanCounter) { c[0].Sigs = map[mem.Instance]mem.StackSig{} },
	},
}

func TestSameBehaviour(t *testing.T) {
	same := func(p, q *Plan) bool {
		a, b := p.SameBehaviour(q), q.SameBehaviour(p)
		if a != b {
			t.Errorf("SameBehaviour is not symmetric: %v vs %v", a, b)
		}
		return a
	}
	if !same(behaviourPlan(), behaviourPlan()) {
		t.Fatal("identical plans differ")
	}
	for field, mutate := range planBehaviourMutations {
		q := behaviourPlan()
		mutate(q)
		if same(behaviourPlan(), q) {
			t.Errorf("changing Plan.%s kept the behaviour equal", field)
		}
	}
	for field, mutate := range planReportingMutations {
		q := behaviourPlan()
		mutate(q)
		if !same(behaviourPlan(), q) {
			t.Errorf("changing reporting-only Plan.%s broke behaviour equality", field)
		}
	}
	for field, mutations := range counterMutations {
		for i, mutate := range mutations {
			q := behaviourPlan()
			mutate(q.Counters)
			if same(behaviourPlan(), q) {
				t.Errorf("change %d of PlanCounter.%s kept the behaviour equal", i, field)
			}
		}
	}
	// An empty SlotOf and a nil one serve the same lookups.
	p, q := behaviourPlan(), behaviourPlan()
	p.Counters[1].SlotOf = map[mem.Instance]Slot{}
	if !same(p, q) {
		t.Error("an empty SlotOf map differs from a nil one")
	}
}

// TestSameBehaviourClassifiesEveryField fails when Plan or PlanCounter
// gains a field that SameBehaviour's tests do not classify as either
// behaviour or reporting-only.
func TestSameBehaviourClassifiesEveryField(t *testing.T) {
	check := func(typ reflect.Type, classes ...map[string]bool) {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			n := 0
			for _, c := range classes {
				if c[name] {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%s.%s is classified %d times, want once: add it to SameBehaviour (if the Allocator reads it) and to the mutation tables", typ.Name(), name, n)
			}
		}
	}
	keys := func(m any) map[string]bool {
		out := make(map[string]bool)
		for _, k := range reflect.ValueOf(m).MapKeys() {
			out[k.String()] = true
		}
		return out
	}
	check(reflect.TypeOf(Plan{}), keys(planBehaviourMutations), keys(planReportingMutations))
	check(reflect.TypeOf(PlanCounter{}), keys(counterMutations))
}

// overflowPlans are plans whose slot arithmetic wraps around uint64;
// Validate must reject each one.
func overflowPlans() map[string]*Plan {
	static := func(off, size uint64) *Plan {
		return &Plan{
			RegionSize: 64,
			Counters: []PlanCounter{{
				Sites:  []mem.SiteID{1},
				Kind:   context.KindFixed,
				Set:    []mem.Instance{1},
				SlotOf: map[mem.Instance]Slot{1: {Offset: off, Size: size}},
			}},
			SiteCounter: map[mem.SiteID]int{1: 0},
		}
	}
	ring := func(n int, slotSize, base uint64) *Plan {
		return &Plan{
			RegionSize: 64,
			Counters: []PlanCounter{{
				Sites:   []mem.SiteID{5},
				Kind:    context.KindAll,
				Recycle: &RecyclePlan{N: n, SlotSize: slotSize, Base: base},
			}},
			SiteCounter: map[mem.SiteID]int{5: 0},
		}
	}
	huge := static(0, 16)
	huge.RegionSize = ^uint64(0) - 7
	return map[string]*Plan{
		"static offset+size wraps": static(^uint64(0)-7, 16),
		"ring N*SlotSize wraps":    ring(2, 1<<63, 0),
		"ring base+size wraps":     ring(1, 16, ^uint64(0)-7),
		"region past address top":  huge,
	}
}

func TestPlanValidateRejectsOverflow(t *testing.T) {
	for name, p := range overflowPlans() {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the plan", name)
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadJSON(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadJSON accepted the plan", name)
		}
	}
	// The ring case used to pass, and its second malloc landed outside
	// the region; a ring that fits keeps every address inside.
	p := ringPlan()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	a := NewAllocator(p, cachesim.DefaultCost())
	for i := 0; i < 2; i++ {
		if addr, _ := a.Malloc(5, 0, 64); !p.Region().Contains(addr) {
			t.Errorf("malloc %d: %#x outside region", i, addr)
		}
	}
}

// FuzzReadPlan feeds arbitrary bytes to ReadJSON: the result is an error
// or a plan whose static slots and rings all lie inside [0, RegionSize)
// without overlapping, checked here with overflow-safe arithmetic. No
// allocator is built, since a ring's N is unbounded.
func FuzzReadPlan(f *testing.F) {
	for _, p := range overflowPlans() {
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	plan, _, err := BuildPlan(synthTrace(), DefaultPlanConfig("synth", VariantHDSHot))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, carry := bits.Add64(uint64(RegionBase), p.RegionSize, 0); carry != 0 {
			t.Fatalf("region size %d wraps the address space", p.RegionSize)
		}
		type interval struct{ off, end uint64 }
		var ivs []interval
		inside := func(off, size uint64) {
			end, carry := bits.Add64(off, size, 0)
			if size == 0 || carry != 0 || end > p.RegionSize {
				t.Fatalf("[%d,+%d) is not inside a %d-byte region", off, size, p.RegionSize)
			}
			ivs = append(ivs, interval{off, end})
		}
		for i := range p.Counters {
			c := &p.Counters[i]
			for _, s := range c.SlotOf {
				inside(s.Offset, s.Size)
			}
			if r := c.Recycle; r != nil {
				if r.N <= 0 {
					t.Fatalf("counter %d: ring of %d slots", i, r.N)
				}
				hi, size := bits.Mul64(uint64(r.N), r.SlotSize)
				if hi != 0 {
					t.Fatalf("counter %d: ring %d x %d wraps", i, r.N, r.SlotSize)
				}
				inside(r.Base, size)
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].off < ivs[j].off })
		for i := 1; i < len(ivs); i++ {
			if ivs[i-1].end > ivs[i].off {
				t.Fatalf("[%d,%d) overlaps [%d,%d)", ivs[i-1].off, ivs[i-1].end, ivs[i].off, ivs[i].end)
			}
		}
		for site, ci := range p.SiteCounter {
			if ci < 0 || ci >= len(p.Counters) {
				t.Fatalf("site %d wired to missing counter %d", site, ci)
			}
		}
	})
}

// TestPlanValidateErrorTexts pins the error text of each slot check:
// Validate names a slot's owner only when it fails, and must name it as
// it always has.
func TestPlanValidateErrorTexts(t *testing.T) {
	static := func(id mem.Instance, s Slot) PlanCounter {
		return PlanCounter{Sites: []mem.SiteID{1}, Kind: context.KindFixed, Set: []mem.Instance{id},
			SlotOf: map[mem.Instance]Slot{id: s}}
	}
	ring := func(base, slotSize uint64) PlanCounter {
		return PlanCounter{Sites: []mem.SiteID{2}, Kind: context.KindAll,
			Recycle: &RecyclePlan{N: 1, SlotSize: slotSize, Base: base}}
	}
	for _, c := range []struct {
		counters []PlanCounter
		want     string
	}{
		{[]PlanCounter{static(3, Slot{Offset: 0, Size: 0})}, "prefix: counter 0 id 3 has zero-size slot"},
		{[]PlanCounter{static(1, Slot{Offset: 16, Size: 64})}, "prefix: counter 0 id 1 at offset 16 size 64 exceeds region size 64"},
		{[]PlanCounter{static(1, Slot{Offset: 0, Size: 16}), ring(56, 16)}, "prefix: counter 1 recycle ring at offset 56 size 16 exceeds region size 64"},
		{[]PlanCounter{static(2, Slot{Offset: 0, Size: 48}), ring(32, 16)}, "prefix: counter 0 id 2 overlaps counter 1 recycle ring"},
		{[]PlanCounter{ring(0, 32), static(7, Slot{Offset: 16, Size: 16})}, "prefix: counter 0 recycle ring overlaps counter 1 id 7"},
	} {
		p := &Plan{RegionSize: 64, Counters: c.counters}
		if err := p.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("Validate = %v, want %q", err, c.want)
		}
	}
}

// TestPlanPublish: the prefix_plan_* gauges carry the plan's shape under
// the caller's labels, and a nil plan or registry publishes nothing.
func TestPlanPublish(t *testing.T) {
	p := &Plan{
		RegionSize:    4096,
		Counters:      make([]PlanCounter, 2),
		SiteCounter:   map[mem.SiteID]int{1: 0, 2: 1, 3: 1},
		PlacedObjects: 7,
		HDSObjects:    5,
	}
	reg := obs.NewRegistry()
	p.Publish(reg, "benchmark", "mcf", "variant", "prefix:hot")
	for name, want := range map[string]float64{
		"prefix_plan_sites":          3,
		"prefix_plan_counters":       2,
		"prefix_plan_region_bytes":   4096,
		"prefix_plan_placed_objects": 7,
		"prefix_plan_hds_objects":    5,
	} {
		if got := reg.Gauge(name, "benchmark", "mcf", "variant", "prefix:hot").Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	(*Plan)(nil).Publish(reg, "benchmark", "none")
	if got := reg.Gauge("prefix_plan_sites", "benchmark", "none").Value(); got != 0 {
		t.Errorf("nil plan published prefix_plan_sites = %v", got)
	}
	p.Publish(nil)
}

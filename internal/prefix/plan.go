// Package prefix implements the paper's primary contribution: the PreFix
// optimizer and runtime. A Plan is the product of profile analysis — the
// preallocated region layout, the per-counter id patterns, the id→slot
// mapping, and the recycling configuration. The Allocator executes the
// plan at "runtime" with the exact instrumentation semantics of the
// paper's Figures 4 (malloc), 5 (free), 6 (realloc) and 7 (recycling).
package prefix

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"slices"

	"prefix/internal/context"
	"prefix/internal/hds"
	"prefix/internal/layout"
	"prefix/internal/mem"
	"prefix/internal/obs"
)

// RegionBase is where the preallocated hot-object region lives in the
// simulated address space, far from the general heap.
const RegionBase mem.Addr = 0x4000_0000_0000

// Variant selects which objects the plan places (§3.2's three PreFix
// configurations).
type Variant uint8

const (
	// VariantHot places all hot objects in allocation order.
	VariantHot Variant = iota + 1
	// VariantHDS places only reconstituted-HDS objects, reordered by the
	// layout algorithm.
	VariantHDS
	// VariantHDSHot places reconstituted HDS objects first and the
	// remaining hot objects at the end of the region.
	VariantHDSHot
)

func (v Variant) String() string {
	switch v {
	case VariantHot:
		return "prefix:hot"
	case VariantHDS:
		return "prefix:hds"
	case VariantHDSHot:
		return "prefix:hds+hot"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Slot is a reserved range inside the preallocated region.
type Slot struct {
	Offset uint64
	Size   uint64
}

// PlanCounter is one runtime counter: the sites that share it, the id
// pattern that detects hot instances, and either a static id→slot mapping
// or a recycling slot ring.
type PlanCounter struct {
	Sites   []mem.SiteID
	Kind    context.PatternKind
	Set     []mem.Instance `json:",omitempty"` // Fixed
	Start   mem.Instance   `json:",omitempty"` // Regular
	Step    mem.Instance   `json:",omitempty"`
	Count   uint64         `json:",omitempty"`
	SlotOf  map[mem.Instance]Slot
	Recycle *RecyclePlan `json:",omitempty"`
	// Sigs enables the hybrid context of §2.2.2 ("it could make sense to
	// use both mechanisms together, object IDs and calling context"):
	// when present, a matching instance id is only captured if the
	// allocation's call-stack signature also matches the one observed in
	// the profiling run — protecting fixed-id plans against
	// non-deterministic allocation orders.
	Sigs map[mem.Instance]mem.StackSig `json:",omitempty"`
}

// RecyclePlan configures Figure 7 object recycling for a counter: N slots
// reused round-robin by `(Counter-1) mod N`.
type RecyclePlan struct {
	N        int
	SlotSize uint64
	// Base is the region offset of slot 0; slot i starts at
	// Base + i*SlotSize.
	Base uint64
}

// Pattern reconstructs the runtime matcher for the counter.
func (c *PlanCounter) Pattern() context.Pattern {
	return context.Pattern{
		Kind:  c.Kind,
		Set:   c.Set,
		Start: c.Start,
		Step:  c.Step,
		Count: c.Count,
	}
}

// Plan is the full optimization product consumed by the Allocator and the
// binary-rewriting model.
type Plan struct {
	Benchmark  string
	Variant    Variant
	RegionSize uint64
	Counters   []PlanCounter
	// SiteCounter maps every instrumented malloc site to its counter.
	SiteCounter map[mem.SiteID]int
	// PlacedObjects is the number of distinct profile objects given
	// static slots (recycled slots excluded).
	PlacedObjects int
	// HDSObjects is how many placed objects belong to reconstituted
	// streams (for Table 5's "HDS" column).
	HDSObjects int
	// Order is the placement order of profile objects (reporting only).
	Order []mem.ObjectID `json:",omitempty"`
}

// Region returns the preallocated region as an address range.
func (p *Plan) Region() mem.Range {
	return mem.Range{Start: RegionBase, Size: p.RegionSize}
}

// NumSites returns the instrumented site count (Table 2 "#sites").
func (p *Plan) NumSites() int { return len(p.SiteCounter) }

// NumCounters returns the counter count (Table 2 "#counters").
func (p *Plan) NumCounters() int { return len(p.Counters) }

// Publish reports the plan's shape — sites, counters, region bytes,
// placed and HDS objects — into reg as the prefix_plan_* gauges under
// the given label pairs. Nil-safe on a nil plan or registry.
func (p *Plan) Publish(reg *obs.Registry, kv ...string) {
	if p == nil || reg == nil {
		return
	}
	reg.Gauge("prefix_plan_sites", kv...).Set(float64(p.NumSites()))
	reg.Gauge("prefix_plan_counters", kv...).Set(float64(p.NumCounters()))
	reg.Gauge("prefix_plan_region_bytes", kv...).Set(float64(p.RegionSize))
	reg.Gauge("prefix_plan_placed_objects", kv...).Set(float64(p.PlacedObjects))
	reg.Gauge("prefix_plan_hds_objects", kv...).Set(float64(p.HDSObjects))
}

// KindsString renders the pattern kinds like Table 2's "type" column.
func (p *Plan) KindsString() string {
	seen := make(map[context.PatternKind]bool)
	for i := range p.Counters {
		seen[p.Counters[i].Kind] = true
	}
	var s string
	for _, k := range []context.PatternKind{context.KindFixed, context.KindRegular, context.KindAll} {
		if seen[k] {
			if s != "" {
				s += " & "
			}
			s += k.String()
		}
	}
	if s == "" {
		return "none"
	}
	return s + " ids"
}

// SameBehaviour reports whether p and q drive the Allocator identically:
// equal region size, site wiring and counters (sites, pattern, slots,
// recycling ring, hybrid signatures). The reporting-only fields —
// Benchmark, Variant, PlacedObjects, HDSObjects and Order — are ignored,
// so two variants whose plans behave the same give the same evaluation
// run on the same input.
func (p *Plan) SameBehaviour(q *Plan) bool {
	if p.RegionSize != q.RegionSize || len(p.Counters) != len(q.Counters) ||
		!maps.Equal(p.SiteCounter, q.SiteCounter) {
		return false
	}
	for i := range p.Counters {
		if !p.Counters[i].sameBehaviour(&q.Counters[i]) {
			return false
		}
	}
	return true
}

// sameBehaviour compares every PlanCounter field the Allocator reads. A
// nil Sigs map and an empty one differ: any non-nil map turns on the
// hybrid check and its instruction cost.
func (c *PlanCounter) sameBehaviour(d *PlanCounter) bool {
	if c.Kind != d.Kind || c.Start != d.Start || c.Step != d.Step || c.Count != d.Count ||
		!slices.Equal(c.Sites, d.Sites) || !slices.Equal(c.Set, d.Set) ||
		!maps.Equal(c.SlotOf, d.SlotOf) ||
		(c.Sigs == nil) != (d.Sigs == nil) || !maps.Equal(c.Sigs, d.Sigs) ||
		(c.Recycle == nil) != (d.Recycle == nil) {
		return false
	}
	return c.Recycle == nil || *c.Recycle == *d.Recycle
}

// Validate checks plan consistency: the region fits the address space,
// slots lie inside the region without wrapping around uint64, no slot
// overlaps another, and every site is wired to a valid counter.
func (p *Plan) Validate() error {
	if p.RegionSize > ^uint64(0)-uint64(RegionBase) {
		return fmt.Errorf("prefix: region size %d overflows the address space", p.RegionSize)
	}
	// A span records its owner (a counter's static slot for one id, or
	// its recycle ring); the owner's name is formatted only for an error.
	type span struct {
		off, end uint64
		counter  int
		id       mem.Instance
		ring     bool
	}
	what := func(s span) string {
		if s.ring {
			return fmt.Sprintf("counter %d recycle ring", s.counter)
		}
		return fmt.Sprintf("counter %d id %d", s.counter, s.id)
	}
	var spans []span
	add := func(s span, size uint64) error {
		end, carry := bits.Add64(s.off, size, 0)
		if carry != 0 || end > p.RegionSize {
			return fmt.Errorf("prefix: %s at offset %d size %d exceeds region size %d", what(s), s.off, size, p.RegionSize)
		}
		s.end = end
		spans = append(spans, s)
		return nil
	}
	for i := range p.Counters {
		c := &p.Counters[i]
		for id, s := range c.SlotOf {
			if s.Size == 0 {
				return fmt.Errorf("prefix: counter %d id %d has zero-size slot", i, id)
			}
			if err := add(span{off: s.Offset, counter: i, id: id}, s.Size); err != nil {
				return err
			}
		}
		if r := c.Recycle; r != nil {
			if r.N <= 0 || r.SlotSize == 0 {
				return fmt.Errorf("prefix: counter %d has invalid recycle plan %+v", i, *r)
			}
			hi, size := bits.Mul64(uint64(r.N), r.SlotSize)
			if hi != 0 {
				return fmt.Errorf("prefix: counter %d recycle ring of %d x %d bytes overflows", i, r.N, r.SlotSize)
			}
			if err := add(span{off: r.Base, counter: i, ring: true}, size); err != nil {
				return err
			}
		}
	}
	slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.off, y.off) })
	for i := 1; i < len(spans); i++ {
		if spans[i-1].end > spans[i].off {
			return fmt.Errorf("prefix: %s overlaps %s", what(spans[i-1]), what(spans[i]))
		}
	}
	for site, c := range p.SiteCounter {
		if c < 0 || c >= len(p.Counters) {
			return fmt.Errorf("prefix: site %v wired to missing counter %d", site, c)
		}
	}
	return nil
}

// WriteJSON serializes the plan.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadJSON deserializes a plan written by WriteJSON.
func ReadJSON(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("prefix: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Summary is the profile-analysis byproduct used for reporting (Figure 2
// style output and Table 5 profiling columns).
type Summary struct {
	OHDS        []hds.Stream
	Recon       *layout.Reconstitution
	HotObjects  int
	HotInHDS    int
	CoveragePct float64
	// Ledger is the decision record of the plan build, when the caller
	// asked for one (PlanConfig.Ledger, or Place's ledger); nil otherwise.
	Ledger *Ledger
}

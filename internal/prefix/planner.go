package prefix

import (
	"fmt"
	"sort"

	"prefix/internal/context"
	"prefix/internal/hds"
	"prefix/internal/hotness"
	"prefix/internal/layout"
	"prefix/internal/mem"
	"prefix/internal/obs"
	"prefix/internal/trace"
)

// PlanConfig controls planning.
type PlanConfig struct {
	Benchmark string
	Variant   Variant
	Hot       hotness.Config
	HDS       hds.Config
	Share     context.ShareConfig
	// RecycleRatio is the allocs/max-live factor beyond which an
	// All-pattern counter is converted to a recycling ring (§2.4). 0
	// disables recycling.
	RecycleRatio float64
	// PromoteAll and PromoteMinAllocs control "all ids" site promotion:
	// a site whose selected-hot fraction reaches PromoteAll (and which
	// allocated at least PromoteMinAllocs objects) has all its instances
	// treated as hot. 0 disables promotion.
	PromoteAll       float64
	PromoteMinAllocs uint64
	// HybridContext enables the §2.2.2 hybrid mechanism: Fixed and
	// Regular counters additionally record each hot instance's profiled
	// call-stack signature, and the runtime requires both the id and the
	// signature to match before placing an object. All-id counters are
	// exempt (every instance is hot regardless of context).
	HybridContext bool
	// MaxRegionBytes caps the preallocated region ("the increase in the
	// program's memory footprint ... can be controlled by limiting the
	// size of the preallocated memory", §1). Recycling rings are kept —
	// they are small and bounded — and the static placement is truncated
	// from the end of the layout order (the coldest singletons) until it
	// fits. 0 means unlimited.
	MaxRegionBytes uint64
	// Trace, when non-nil, receives one child span per planning stage
	// (mining, reconstitution, context inference, recycling, slot
	// assignment) with per-stage counters attached. Purely observational:
	// it never influences the plan.
	Trace *obs.Span
	// Ledger, when non-nil, receives one Decision per planning choice —
	// classification reasons, sharing attempts, reconstitution actions,
	// recycling geometry, slot placements, budget truncation. Like Trace
	// it is purely observational and deterministic.
	Ledger *Ledger
}

// DefaultPlanConfig returns the configuration used across the evaluation.
func DefaultPlanConfig(benchmark string, v Variant) PlanConfig {
	hotCfg := hotness.DefaultConfig()
	// The planner prefers complete hot sets over a hard cap: recycling
	// and "all ids" classification both depend on seeing every hot
	// instance of a site, and region growth is bounded by recycling and
	// by the coverage threshold.
	hotCfg.MaxObjects = 0
	return PlanConfig{
		Benchmark:        benchmark,
		Variant:          v,
		Hot:              hotCfg,
		HDS:              hds.DefaultConfig(),
		Share:            context.DefaultShareConfig(),
		RecycleRatio:     4,
		PromoteAll:       0.8,
		PromoteMinAllocs: 8,
	}
}

// SelectHot performs hot-object selection plus "all ids" promotion per
// the configuration; BuildPlan uses it internally, and callers that need
// the same ground truth for baseline accounting call it directly.
func SelectHot(a *trace.Analysis, cfg PlanConfig) *hotness.Set {
	hot := hotness.Select(a, cfg.Hot)
	if cfg.PromoteAll > 0 {
		hot.PromoteSites(a, cfg.PromoteAll, cfg.PromoteMinAllocs)
	}
	return hot
}

// BuildPlan runs the full profile analysis of Figure 8 on an analyzed
// trace and produces cfg.Variant's Plan plus the reporting Summary:
// SelectHot, LCS mining of the collapsed hot references (§3.1),
// WeighStreams, Prepare and Place. It is the one-call form for callers
// that hold only an analysis; callers that plan several variants from
// one profile call Prepare once and Place per variant.
func BuildPlan(a *trace.Analysis, cfg PlanConfig) (*Plan, *Summary, error) {
	hot := SelectHot(a, cfg)
	mineSpan := cfg.Trace.Child("hds-mining")
	refs := hds.CollapseRefs(a.Refs, hot.IDs)
	ohds := WeighStreams(hds.MineLCS(refs, cfg.HDS), hot)
	mineSpan.Set("refs", len(refs))
	mineSpan.Set("streams", len(ohds))
	mineSpan.End()
	prep, err := Prepare(a, hot, ohds, len(refs), cfg)
	if err != nil {
		return nil, nil, err
	}
	return prep.Place(cfg.Variant, cfg.Trace, cfg.Ledger)
}

// WeighStreams ranks mined streams by the profiled access counts of
// their members — the "descending order of memory references" OHDS that
// Prepare expects.
func WeighStreams(streams []hds.Stream, hot *hotness.Set) []hds.Stream {
	accesses := make(map[mem.ObjectID]uint64, len(hot.Objects))
	for _, o := range hot.Objects {
		accesses[o.ID] = o.Accesses
	}
	return hds.WeighByAccesses(streams, accesses)
}

// Prepared is the variant-independent half of planning: the weighted
// OHDS, its reconstitution (Algorithm 1), the context assignment (§2.2)
// and the recycling decisions (§2.4), plus the ledger decisions of those
// stages. Prepare builds it once per profile; Place turns it into one
// variant's plan. Place never modifies it, so one Prepared may serve
// every variant and every evaluation input, from any goroutine.
type Prepared struct {
	a   *trace.Analysis
	hot *hotness.Set
	cfg PlanConfig

	ohds     []hds.Stream
	recon    *layout.Reconstitution
	inStream map[mem.ObjectID]bool // members of the reconstituted streams
	hotInHDS int
	hotOrder []mem.ObjectID // hot objects in allocation order
	asn      *context.Assignment
	rings    map[int]ringSpec // assignment counter index -> ring
	recycled map[mem.ObjectID]bool
	// decisions are the mining, reconstitution, context and recycling
	// decisions, in that order; Place copies them into each variant's
	// ledger ahead of its placement decisions.
	decisions []Decision
}

type ringSpec struct {
	n        int
	slotSize uint64
}

// Prepare runs the planning stages that do not depend on the variant —
// reconstitution, context inference and recycling — over the profile's
// analysis, its hot set, and the OHDS already mined by LCS from refs
// collapsed hot references and weighed by WeighStreams. cfg.Variant
// and cfg.Ledger are ignored (they are Place's); cfg.Trace receives one
// child span per stage.
func Prepare(a *trace.Analysis, hot *hotness.Set, ohds []hds.Stream, refs int, cfg PlanConfig) (*Prepared, error) {
	if len(hot.Objects) == 0 {
		return nil, fmt.Errorf("prefix: no hot objects found in profile")
	}
	led := NewLedger()
	led.Record(Decision{
		Stage: StageMining, Kind: "streams-mined", Counter: -1,
		Reason: fmt.Sprintf("lcs miner found %d observed hot data streams over %d collapsed hot references",
			len(ohds), refs),
	})

	// --- Layout determination (Algorithm 1) -------------------------
	reconSpan := cfg.Trace.Child("reconstitution")
	recon := layout.Reconstitute(ohds)
	if err := recon.Validate(); err != nil {
		reconSpan.End()
		return nil, err
	}
	reconSpan.Set("rhds", len(recon.RHDS))
	reconSpan.Set("singletons", len(recon.Singletons))
	reconSpan.End()
	for _, st := range recon.Steps {
		led.Record(Decision{
			Stage: StageReconstitution, Kind: "hds-" + st.Action, Counter: -1,
			Reason: fmt.Sprintf("OHDS[%d]: %s", st.Stream, st.Reason),
		})
	}

	hotOrder := make([]mem.ObjectID, 0, len(hot.Objects)) // allocation order
	for _, o := range hot.Objects {
		hotOrder = append(hotOrder, o.ID)
	}
	sort.Slice(hotOrder, func(i, j int) bool { return hotOrder[i] < hotOrder[j] })

	// --- Context determination (§2.2) --------------------------------
	// Identification is independent of the layout variant: every site
	// that allocates hot objects is instrumented, and patterns are
	// inferred over the full hot set. The variant only decides which
	// objects receive static slots; recycling applies to qualifying
	// counters under every variant ("all versions of PreFix perform the
	// same" on the recycling benchmarks, §3.3).
	ctxSpan := cfg.Trace.Child("context-inference")
	hotSites := make(map[mem.SiteID]bool)
	for site := range hot.PerSite {
		hotSites[site] = true
	}
	var allocs []context.AllocRecord
	for _, o := range a.Objects {
		if !hotSites[o.Site] {
			continue
		}
		allocs = append(allocs, context.AllocRecord{
			Site:   o.Site,
			Object: o.ID,
			Hot:    hot.IDs[o.ID],
		})
	}
	asn, err := context.BuildAssignment(allocs, cfg.Share)
	if err != nil {
		ctxSpan.End()
		return nil, err
	}
	ctxSpan.Set("sites", len(hotSites))
	ctxSpan.Set("counters", len(asn.Counters))
	ctxSpan.End()
	for _, sd := range asn.Trail {
		kind := "share-rejected"
		if sd.Accepted {
			kind = "share-accepted"
		}
		led.Record(Decision{
			Stage: StageContext, Kind: kind, Counter: -1, Sites: sd.Sites, Reason: sd.Reason,
		})
	}
	for ci, c := range asn.Counters {
		led.Record(Decision{
			Stage: StageContext, Kind: "counter-classified", Counter: ci, Sites: c.Sites,
			Reason: fmt.Sprintf("%s pattern over %d site(s): %s", c.Kind, len(c.Sites), c.Reason),
		})
	}

	// --- Recycling decision (§2.4) ------------------------------------
	// Decide which counters become slot rings *before* assigning static
	// offsets, so recycled objects never consume static region space
	// (this is what lets leela/swissmap shrink their footprints).
	recycleSpan := cfg.Trace.Child("recycling")
	liveness := hotness.AnalyzeLiveness(a)
	rings := make(map[int]ringSpec)
	recycled := make(map[mem.ObjectID]bool)
	if cfg.RecycleRatio <= 0 {
		led.Record(Decision{
			Stage: StageRecycling, Kind: "recycling-disabled", Counter: -1,
			Reason: "recycling disabled by configuration (RecycleRatio 0)",
		})
	} else {
		for ci, c := range asn.Counters {
			if c.Kind != context.KindAll {
				continue // only all-ids counters can serve every instance from a ring
			}
			if why, ok := recyclable(c.Sites, liveness, cfg.RecycleRatio); !ok {
				led.Record(Decision{
					Stage: StageRecycling, Kind: "ring-rejected", Counter: ci, Sites: c.Sites, Reason: why,
				})
				continue
			}
			n, slotSize := ringGeometry(c, a, liveness)
			if n <= 0 || slotSize == 0 {
				led.Record(Decision{
					Stage: StageRecycling, Kind: "ring-rejected", Counter: ci, Sites: c.Sites,
					Reason: fmt.Sprintf("degenerate ring geometry (N=%d slot=%d B)", n, slotSize),
				})
				continue
			}
			rings[ci] = ringSpec{n: n, slotSize: slotSize}
			for _, obj := range c.HotIDs {
				recycled[obj] = true
			}
			led.Record(Decision{
				Stage: StageRecycling, Kind: "ring-sized", Counter: ci, Sites: c.Sites,
				Size: uint64(n) * slotSize,
				Reason: fmt.Sprintf(
					"every site reaches allocs/max-live ratio %.3g; N=%d (peak simultaneously-live objects), slot=%d B (largest hot object) serve %d hot objects from %d B of ring space",
					cfg.RecycleRatio, n, slotSize, len(c.HotIDs), uint64(n)*slotSize),
			})
		}
	}
	recycleSpan.Set("rings", len(rings))
	recycleSpan.Set("recycled_objects", len(recycled))
	recycleSpan.End()

	inStream := hds.Objects(recon.RHDS)
	hotInHDS := 0
	for id := range hot.IDs {
		if inStream[id] {
			hotInHDS++
		}
	}
	cfg.Trace, cfg.Ledger = nil, nil // Place takes its own
	return &Prepared{
		a: a, hot: hot, cfg: cfg,
		ohds: ohds, recon: recon, inStream: inStream, hotInHDS: hotInHDS, hotOrder: hotOrder,
		asn: asn, rings: rings, recycled: recycled,
		decisions: led.Decisions,
	}, nil
}

// Place builds variant v's plan from the prepared stages: the variant's
// placement order, slot assignment, region-budget truncation, counter
// wiring, and validation. tr receives the slot-assignment span. When led
// is non-nil it receives the prepared decisions followed by this
// variant's placement decisions, and becomes the Summary's Ledger.
func (p *Prepared) Place(v Variant, tr *obs.Span, led *Ledger) (*Plan, *Summary, error) {
	a, hot, cfg, recon := p.a, p.hot, p.cfg, p.recon

	// Placement order by variant.
	var order []mem.ObjectID
	switch v {
	case VariantHot:
		order = p.hotOrder
	case VariantHDS:
		order = recon.Order() // streams then split singletons
	case VariantHDSHot:
		order = recon.Order()
		placed := make(map[mem.ObjectID]bool, len(order))
		for _, o := range order {
			placed[o] = true
		}
		for _, o := range p.hotOrder {
			if !placed[o] {
				order = append(order, o)
			}
		}
	default:
		return nil, nil, fmt.Errorf("prefix: unknown variant %v", v)
	}
	// The placement can only target hot objects. The filtered order is a
	// fresh slice: p.hotOrder is shared by every variant.
	orderSet := make(map[mem.ObjectID]bool, len(order))
	filtered := make([]mem.ObjectID, 0, len(order))
	for _, o := range order {
		if hot.IDs[o] && !orderSet[o] {
			orderSet[o] = true
			filtered = append(filtered, o)
		}
	}
	order = filtered
	if led != nil {
		led.Decisions = append(led.Decisions, p.decisions...)
	}

	// --- Slot assignment ----------------------------------------------
	slotSpan := tr.Child("slot-assignment")
	staticOrder := make([]mem.ObjectID, 0, len(order))
	for _, id := range order {
		if !p.recycled[id] {
			staticOrder = append(staticOrder, id)
		}
	}
	sizes := make(map[mem.ObjectID]uint64, len(staticOrder))
	for _, id := range staticOrder {
		o := a.Object(id)
		sz := o.Size
		if o.FinalSize > sz {
			sz = o.FinalSize
		}
		sizes[id] = sz
	}
	if cfg.MaxRegionBytes > 0 {
		// Reserve ring space first, then truncate the static placement
		// (coldest-last layout order) to the remaining budget.
		var ringBytes uint64
		for _, r := range p.rings {
			ringBytes += uint64(r.n) * r.slotSize
		}
		budget := uint64(0)
		if cfg.MaxRegionBytes > ringBytes {
			budget = cfg.MaxRegionBytes - ringBytes
		}
		var used uint64
		cut := len(staticOrder)
		for i, id := range staticOrder {
			sz := mem.AlignUp(maxU64p(sizes[id], layout.Align), layout.Align)
			if used+sz > budget {
				cut = i
				break
			}
			used += sz
		}
		if led != nil {
			for _, id := range staticOrder[cut:] {
				led.Record(Decision{
					Stage: StagePlacement, Kind: "budget-truncated", Counter: -1,
					Sites: []mem.SiteID{a.Object(id).Site}, Object: id, Size: sizes[id],
					Reason: fmt.Sprintf(
						"region budget %d B (rings reserve %d B) exhausted after %d B; coldest tail of the layout order dropped",
						cfg.MaxRegionBytes, ringBytes, used),
				})
			}
		}
		staticOrder = staticOrder[:cut]
	}
	placement := layout.Assign(staticOrder, sizes)
	if err := placement.Validate(); err != nil {
		slotSpan.End()
		return nil, nil, err
	}
	slotSpan.Set("placed", len(placement.Offsets))
	slotSpan.Set("region_bytes", placement.Total)
	slotSpan.End()
	if led != nil {
		// Where each placed object sits in the layout order and why: its
		// reconstituted stream position, singleton slot, or variant tail.
		why := make(map[mem.ObjectID]string, len(staticOrder))
		for i, s := range recon.RHDS {
			for j, o := range s.Objects {
				why[o] = fmt.Sprintf("position %d of reconstituted stream RHDS[%d] (stream order drives the next-line prefetcher)", j, i)
			}
		}
		for _, o := range recon.Singletons {
			why[o] = "hot singleton left over from stream splitting; placed after the streams"
		}
		for _, id := range staticOrder {
			w, ok := why[id]
			if !ok || v == VariantHot {
				w = "hot object placed in allocation order"
				if v == VariantHDSHot {
					w = "hot object outside every reconstituted stream; appended after the streams"
				}
			}
			led.Record(Decision{
				Stage: StagePlacement, Kind: "slot-assigned", Counter: p.asn.SiteCounter[a.Object(id).Site],
				Sites: []mem.SiteID{a.Object(id).Site}, Object: id,
				Offset: placement.Offsets[id], Size: placement.Sizes[id], Reason: w,
			})
		}
	}

	plan := &Plan{
		Benchmark:   cfg.Benchmark,
		Variant:     v,
		SiteCounter: make(map[mem.SiteID]int),
		Order:       order,
	}
	regionEnd := placement.Total

	for ci, c := range p.asn.Counters {
		pc := PlanCounter{
			Sites: c.Sites,
			Kind:  c.Kind,
			Set:   c.Set,
			Start: c.Pattern.Start,
			Step:  c.Pattern.Step,
			Count: c.Pattern.Count,
		}
		if r, ok := p.rings[ci]; ok {
			pc.Recycle = &RecyclePlan{N: r.n, SlotSize: r.slotSize, Base: regionEnd}
			regionEnd += uint64(r.n) * r.slotSize
		} else {
			pc.SlotOf = make(map[mem.Instance]Slot)
			for id, obj := range c.HotIDs {
				if off, ok := placement.Offsets[obj]; ok {
					pc.SlotOf[id] = Slot{Offset: off, Size: placement.Sizes[obj]}
				}
			}
			if cfg.HybridContext && c.Kind != context.KindAll {
				pc.Sigs = make(map[mem.Instance]mem.StackSig, len(c.HotIDs))
				for id, obj := range c.HotIDs {
					pc.Sigs[id] = a.Object(obj).Stack
				}
			}
		}
		plan.Counters = append(plan.Counters, pc)
		for _, s := range c.Sites {
			plan.SiteCounter[s] = len(plan.Counters) - 1
		}
	}

	plan.RegionSize = regionEnd
	plan.PlacedObjects = len(placement.Offsets)
	for _, id := range order {
		if p.inStream[id] {
			if _, still := placement.Offsets[id]; still {
				plan.HDSObjects++
			}
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, nil, err
	}

	sum := &Summary{
		OHDS:        p.ohds,
		Recon:       recon,
		HotObjects:  len(hot.Objects),
		HotInHDS:    p.hotInHDS,
		CoveragePct: hot.CoveragePct(),
		Ledger:      led,
	}
	return plan, sum, nil
}

func maxU64p(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func recyclable(sites []mem.SiteID, l hotness.Liveness, ratio float64) (string, bool) {
	for _, s := range sites {
		if !l.RecyclingCandidate(s, ratio) {
			return fmt.Sprintf(
				"site %d allocates %d objects with peak live %d — below the allocs/max-live ratio %.3g recycling needs",
				s, l.SiteAllocs[s], l.SiteMaxLive[s], ratio), false
		}
	}
	return "", true
}

// ringGeometry sizes a recycling ring: N = peak simultaneously-live
// objects across the counter's sites (so in the common case everything is
// served from the ring), slot size = largest hot object of the counter.
func ringGeometry(c *context.Counter, a *trace.Analysis, l hotness.Liveness) (int, uint64) {
	var n uint64
	for _, s := range c.Sites {
		n += l.SiteMaxLive[s]
	}
	var slot uint64
	for _, obj := range c.HotIDs {
		o := a.Object(obj)
		sz := o.Size
		if o.FinalSize > sz {
			sz = o.FinalSize
		}
		if sz > slot {
			slot = sz
		}
	}
	slot = mem.AlignUp(slot, layout.Align)
	return int(n), slot
}

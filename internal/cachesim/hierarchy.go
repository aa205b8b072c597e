package cachesim

import "prefix/internal/mem"

// Config describes a full hierarchy: L1D + LLC + two-level TLB, with the
// cycle cost model used to derive execution time and backend stalls.
type Config struct {
	L1Size  uint64
	L1Ways  int
	LLCSize uint64
	LLCWays int
	Line    uint64

	TLB1Entries int
	TLB1Ways    int
	TLB2Entries int
	TLB2Ways    int
	Page        uint64

	// NextLinePrefetch enables the next-line prefetcher: on an L1 demand
	// miss, the following line is installed in the LLC. This is what
	// rewards stream-ordered layouts (reconstituted HDS objects placed
	// in access order prefetch one another), matching the hardware the
	// paper measures on.
	NextLinePrefetch bool

	Cost CostModel
}

// CostModel converts event counts into cycles. The constants are ordinary
// figures for a modern Intel server part; absolute values only scale the
// modeled "execution time", all paper comparisons are relative.
type CostModel struct {
	CyclesPerInstr float64 // base IPC⁻¹ for non-memory work
	L1HitCycles    float64 // charged per memory access
	L1MissCycles   float64 // extra cycles per L1 line miss
	LLCMissCycles  float64 // extra cycles when LLC misses (DRAM)
	TLB1MissCycles float64 // extra when L1 TLB misses but L2 TLB hits
	TLB2MissCycles float64 // extra for a page walk
	MallocInstr    uint64  // instructions charged per heap malloc
	FreeInstr      uint64  // instructions charged per heap free
	ReallocInstr   uint64  // instructions charged per heap realloc
}

// DefaultCost is the cost model used across the evaluation.
func DefaultCost() CostModel {
	return CostModel{
		CyclesPerInstr: 0.5,
		L1HitCycles:    1,
		L1MissCycles:   12, // L1 miss, LLC hit
		LLCMissCycles:  200,
		TLB1MissCycles: 8,
		TLB2MissCycles: 60,
		MallocInstr:    120,
		FreeInstr:      90,
		ReallocInstr:   160,
	}
}

// PaperConfig is the evaluation machine of §3.2: 32 KB 8-way L1, 40 MB
// 20-way LLC, 64 B lines, 64-entry 4-way L1 TLB, 1536-entry 6-way L2 TLB.
func PaperConfig() Config {
	return Config{
		L1Size: 32 << 10, L1Ways: 8,
		LLCSize: 40 << 20, LLCWays: 20,
		Line:        64,
		TLB1Entries: 64, TLB1Ways: 4,
		TLB2Entries: 1536, TLB2Ways: 6,
		Page:             4096,
		NextLinePrefetch: true,
		Cost:             DefaultCost(),
	}
}

// ScaledConfig shrinks the LLC to 2 MB (16-way) so scaled-down workloads
// exercise LLC misses the way the paper's full-size runs exercise the
// 40 MB LLC. Everything else matches PaperConfig.
func ScaledConfig() Config {
	c := PaperConfig()
	c.LLCSize = 2 << 20
	c.LLCWays = 16
	return c
}

// Hierarchy simulates one hardware thread's view of the memory system: a
// private L1 and TLBs in front of a (possibly shared) LLC.
type Hierarchy struct {
	l1       *Cache
	llc      *Cache // may be shared between hierarchies
	tlb1     *Cache
	tlb2     *Cache
	prefetch bool // Config.NextLinePrefetch

	// tlb1Page is the page Access last probed in tlb1. Only Access
	// touches the private tlb1, so that page sits at MRU way 0 of its
	// set: a repeat access to it is a hit that changes no state, and
	// Access skips the probe. It starts at ^uint64(0), which no page
	// number reaches: NewCache requires pages of at least two bytes.
	tlb1Page uint64

	counts Counts
}

// Counts aggregates simulation totals. Accesses counts references; the
// L1 fields count line probes, so a reference straddling a line
// boundary adds two to L1Hits+L1Misses.
type Counts struct {
	Accesses   uint64 `json:"accesses"`
	L1Hits     uint64 `json:"l1_hits"`
	L1Misses   uint64 `json:"l1_misses"`
	LLCHits    uint64 `json:"llc_hits"` // L1 misses served by the LLC
	LLCMisses  uint64 `json:"llc_misses"`
	TLB1Miss   uint64 `json:"tlb1_misses"`
	TLB2Miss   uint64 `json:"tlb2_misses"`
	Prefetches uint64 `json:"prefetches"` // next-line prefetches issued
}

// New builds a hierarchy with a private LLC.
func New(cfg Config) *Hierarchy {
	llc := MustCache(cfg.LLCSize, cfg.Line, cfg.LLCWays)
	return NewShared(cfg, llc)
}

// NewShared builds a hierarchy whose LLC is the given (shared) cache; used
// for multithreaded simulation where threads have private L1s.
func NewShared(cfg Config, llc *Cache) *Hierarchy {
	return &Hierarchy{
		l1:       MustCache(cfg.L1Size, cfg.Line, cfg.L1Ways),
		llc:      llc,
		tlb1:     MustCache(uint64(cfg.TLB1Entries)*cfg.Page, cfg.Page, cfg.TLB1Ways),
		tlb2:     MustCache(uint64(cfg.TLB2Entries)*cfg.Page, cfg.Page, cfg.TLB2Ways),
		prefetch: cfg.NextLinePrefetch,
		tlb1Page: ^uint64(0),
	}
}

// SharedLLC builds an LLC suitable for NewShared from cfg.
func SharedLLC(cfg Config) *Cache { return MustCache(cfg.LLCSize, cfg.Line, cfg.LLCWays) }

// Access simulates one data reference of the given width. Accesses that
// straddle a line boundary touch both lines (one counted access, both line
// fills), matching DrCacheSim accounting closely enough for the ratios the
// paper reports.
//
// The walk is flat: each address's page and line block numbers are
// computed once and probed directly against every level's flat tag
// array, so the whole TLB→L1→LLC path is adds, shifts, and one short
// probe loop per level — no per-level address re-derivation and no
// allocation. An access to the page of the previous access skips the L1
// TLB probe (see tlb1Page). An access running past the top of the
// address space stops at its last line.
//
//prefix:hotpath
func (h *Hierarchy) Access(addr mem.Addr, size uint64) {
	if size == 0 {
		size = 1
	}
	h.counts.Accesses++
	a := uint64(addr)
	// TLB lookup for the first page only; straddles are negligible. Both
	// TLB levels share the page geometry, so one page number serves both.
	if page := a >> h.tlb1.shift; page != h.tlb1Page {
		h.tlb1Page = page
		if !h.tlb1.probe(page) {
			h.counts.TLB1Miss++
			if !h.tlb2.probe(page) {
				h.counts.TLB2Miss++
			}
		}
	}
	// L1 and LLC share the line geometry: one block number per line
	// walks both levels.
	lineShift := h.l1.shift
	end := a + size - 1
	if end < a {
		end = ^uint64(0)
	}
	first := a >> lineShift
	last := end >> lineShift
	for blk := first; ; blk++ {
		if h.l1.probe(blk) {
			h.counts.L1Hits++
		} else {
			h.counts.L1Misses++
			if h.llc.probe(blk) {
				h.counts.LLCHits++
			} else {
				h.counts.LLCMisses++
			}
			if h.prefetch {
				// Install the successor line in the LLC. Prefetch
				// traffic is counted in Prefetches only, so
				// LLCHits+LLCMisses stays demand-only.
				h.llc.probe(blk + 1)
				h.counts.Prefetches++
			}
		}
		if blk == last {
			break
		}
	}
}

// AccessDelta is Access plus attribution: it simulates the reference and
// returns exactly the Counts it contributed. The walk itself is the same
// code as Access — the delta is a before/after snapshot of the totals —
// so attribution-mode simulation produces aggregate Counts identical to
// the plain path by construction, and every access's events land in
// exactly one delta (summing deltas reproduces Counts()).
//
//prefix:hotpath
func (h *Hierarchy) AccessDelta(addr mem.Addr, size uint64) Counts {
	before := h.counts
	h.Access(addr, size)
	return h.counts.Sub(before)
}

// Counts returns the accumulated totals.
func (h *Hierarchy) Counts() Counts { return h.counts }

// L1MissRate is L1 line misses per access. It can exceed 1, since an
// access straddling two lines can miss both.
func (c Counts) L1MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.L1Misses) / float64(c.Accesses)
}

// LLCMissRate is LLC misses per access (the paper's Figure 12 metric:
// percentage of memory accesses that missed in the LLC).
func (c Counts) LLCMissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.LLCMisses) / float64(c.Accesses)
}

// Add accumulates other into c.
func (c *Counts) Add(o Counts) {
	c.Accesses += o.Accesses
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.LLCHits += o.LLCHits
	c.LLCMisses += o.LLCMisses
	c.TLB1Miss += o.TLB1Miss
	c.TLB2Miss += o.TLB2Miss
	c.Prefetches += o.Prefetches
}

// Sub returns the field-wise difference c-o. Callers pair it with a
// snapshot taken before a batch of accesses to attribute just that
// batch; o must be an earlier snapshot of the same counter set.
//
//prefix:hotpath
func (c Counts) Sub(o Counts) Counts {
	return Counts{
		Accesses:   c.Accesses - o.Accesses,
		L1Hits:     c.L1Hits - o.L1Hits,
		L1Misses:   c.L1Misses - o.L1Misses,
		LLCHits:    c.LLCHits - o.LLCHits,
		LLCMisses:  c.LLCMisses - o.LLCMisses,
		TLB1Miss:   c.TLB1Miss - o.TLB1Miss,
		TLB2Miss:   c.TLB2Miss - o.TLB2Miss,
		Prefetches: c.Prefetches - o.Prefetches,
	}
}

// Cycles applies the cost model: instr covers non-memory instructions,
// counts covers the memory side.
func (m CostModel) Cycles(instr uint64, c Counts) float64 {
	cy := float64(instr) * m.CyclesPerInstr
	cy += float64(c.Accesses) * m.L1HitCycles
	cy += float64(c.L1Misses) * m.L1MissCycles
	cy += float64(c.LLCMisses) * m.LLCMissCycles
	cy += float64(c.TLB1Miss) * m.TLB1MissCycles
	cy += float64(c.TLB2Miss) * m.TLB2MissCycles
	return cy
}

// StallCycles returns the memory-stall component of Cycles, the numerator
// of the paper's Figure 13 "backend stall" metric.
func (m CostModel) StallCycles(c Counts) float64 {
	return float64(c.L1Misses)*m.L1MissCycles +
		float64(c.LLCMisses)*m.LLCMissCycles +
		float64(c.TLB1Miss)*m.TLB1MissCycles +
		float64(c.TLB2Miss)*m.TLB2MissCycles
}

package pipeline

import (
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/prefix"
)

// SiteShare is one site's attributed slice of a run.
type SiteShare struct {
	Accesses    uint64  `json:"accesses"`
	LLCMisses   uint64  `json:"llc_misses"`
	SharePct    float64 `json:"share_pct"` // of the run's total LLC misses
	StallCycles float64 `json:"stall_cycles"`
}

// ExplainTopSites is how many top sites (by baseline LLC-miss share) the
// CLIs' attribution tables cover.
const ExplainTopSites = 8

// maxSiteDecisions caps how many placement decisions an Explain document
// quotes per site (a site can place hundreds of objects; the ledger has
// them all, the document shows the first few plus the total).
const maxSiteDecisions = 3

// SiteExplain joins one site's before/after attribution with the ledger
// decisions that shaped its layout: classification, sharing, recycling,
// and (capped) placements.
type SiteExplain struct {
	Site     mem.SiteID `json:"site"`
	Baseline SiteShare  `json:"baseline"`
	Best     SiteShare  `json:"best"`
	// Decisions are the site's ledger entries from the best variant's
	// plan build; placement entries are capped at maxSiteDecisions,
	// Placements is the uncapped slot count.
	Decisions  []prefix.Decision `json:"decisions,omitempty"`
	Placements int               `json:"placements"`
}

// Explain is the per-benchmark explainability document: which sites
// caused the baseline's LLC misses, what each costs after the best
// PreFix variant, and why the planner placed them where it did. The
// prefix-explain CLI and the attribution table render it.
type Explain struct {
	Benchmark string `json:"benchmark"`
	Variant   string `json:"variant"` // best PreFix variant
	// Totals over all sites (including unattributed traffic).
	BaselineLLCMisses uint64 `json:"baseline_llc_misses"`
	BestLLCMisses     uint64 `json:"best_llc_misses"`
	// Sites are the top-N sites by baseline LLC-miss share.
	Sites []SiteExplain `json:"sites"`
	// Decisions counts the best variant's full ledger.
	Decisions int `json:"decisions"`
}

// shareOf extracts one site's slice from an attribution snapshot.
func shareOf(a machine.AttribCounts, site mem.SiteID, totalLLC uint64) SiteShare {
	s, ok := a.Of(site)
	if !ok {
		return SiteShare{}
	}
	sh := SiteShare{
		Accesses:    s.Counts.Accesses,
		LLCMisses:   s.Counts.LLCMisses,
		StallCycles: s.StallCycles,
	}
	if totalLLC > 0 {
		sh.SharePct = 100 * float64(s.Counts.LLCMisses) / float64(totalLLC)
	}
	return sh
}

// siteDecisions selects a site's ledger entries for the document: every
// classification/sharing/recycling decision, plus up to maxSiteDecisions
// placements. The full placement count is returned separately.
func siteDecisions(led *prefix.Ledger, site mem.SiteID) (ds []prefix.Decision, placements int) {
	for _, d := range led.ForSite(site) {
		if d.Stage == prefix.StagePlacement {
			placements++
			if placements > maxSiteDecisions {
				continue
			}
		}
		ds = append(ds, d)
	}
	return ds, placements
}

// BuildExplain assembles the explain document for one attributed
// comparison: the top-N sites by baseline LLC-miss share, each joined
// with its best-variant attribution and ledger decisions. It returns an
// error when the comparison did not simulate the baseline and PreFix,
// and nil when it ran without attribution.
func BuildExplain(c *Comparison, topN int) (*Explain, error) {
	if c == nil {
		return nil, nil
	}
	if err := c.Need(StrategyBaseline | StrategyPreFix); err != nil {
		return nil, err
	}
	if !c.Baseline.Attrib.Enabled {
		return nil, nil
	}
	best := c.BestResult()
	led := c.Summaries[c.Best].Ledger
	baseTotal := c.Baseline.Attrib.Total().LLCMisses
	bestTotal := best.Attrib.Total().LLCMisses
	ex := &Explain{
		Benchmark:         c.Benchmark,
		Variant:           c.Best.String(),
		BaselineLLCMisses: baseTotal,
		BestLLCMisses:     bestTotal,
		Decisions:         led.Len(),
	}
	for _, s := range c.Baseline.Attrib.Top(topN) {
		se := SiteExplain{
			Site:     s.Site,
			Baseline: shareOf(c.Baseline.Attrib, s.Site, baseTotal),
			Best:     shareOf(best.Attrib, s.Site, bestTotal),
		}
		se.Decisions, se.Placements = siteDecisions(led, s.Site)
		ex.Sites = append(ex.Sites, se)
	}
	return ex, nil
}

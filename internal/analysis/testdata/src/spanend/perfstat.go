// perfstat.go extends the spanend golden to perfstat scopes: a
// Collector.Begin acquisition follows the same End-on-all-paths rule as
// Tracer.Start, including when the scope owns a span handed to Begin.
package spanend

import (
	"prefix/internal/obs"
	"prefix/internal/obs/perfstat"
)

// perfMissingEnd never ends the scope: the host sample is dropped.
func perfMissingEnd(perf *perfstat.Collector) {
	sc := perf.Begin("simulate", nil) // want `missing sc\.End\(\)`
	sc.AddEvents(100)
}

// perfDiscarded loses the scope entirely.
func perfDiscarded(perf *perfstat.Collector) {
	perf.Begin("simulate", nil) // want `span is discarded`
}

// perfDeferred is the canonical healthy shape.
func perfDeferred(perf *perfstat.Collector) {
	sc := perf.Begin("simulate", nil)
	defer sc.End()
	sc.AddEvents(100)
}

// perfSameBlock ends explicitly in the acquisition's own block.
func perfSameBlock(perf *perfstat.Collector) perfstat.Sample {
	sc := perf.Begin("simulate", nil)
	sc.AddEvents(100)
	return sc.End()
}

// perfConditional ends the scope on only one path.
func perfConditional(perf *perfstat.Collector, fail bool) {
	sc := perf.Begin("simulate", nil) // want `only called on some paths`
	if !fail {
		sc.End()
	}
}

// perfSpanDeferred mirrors the CLIs: the span handed to Begin is owned
// by the scope, and the scope's deferred End satisfies both.
func perfSpanDeferred(perf *perfstat.Collector, tr *obs.Tracer) {
	root := tr.Start("run")
	sc := perf.Begin("run", root)
	defer sc.End()
}

// perfChildInline opens the stage's span inside the Begin call.
func perfChildInline(perf *perfstat.Collector, parent *obs.Span) perfstat.Sample {
	sc := perf.Begin("run", parent.Child("stage"))
	sc.AddEvents(1)
	return sc.End()
}

// perfSpanScopeMissing wraps a span in a scope that is never ended, so
// neither is the span: the scope must be caught.
func perfSpanScopeMissing(perf *perfstat.Collector, root *obs.Span) {
	sc := perf.Begin("run", root.Child("stage")) // want `missing sc\.End\(\)`
	sc.AddEvents(1)
}

// perfHandedOff transfers ownership to the callee.
func perfHandedOff(perf *perfstat.Collector) {
	sc := perf.Begin("simulate", nil)
	endElsewhere(sc)
}

func endElsewhere(sc *perfstat.Scope) {
	sc.End()
}

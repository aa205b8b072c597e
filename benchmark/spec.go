package main

// workload is one closed-loop scenario: each run is one prefix-bench
// invocation with Args. Digest is the sha256 of that invocation's stdout
// at the commit that defined the benchmark; the simulation is
// deterministic, so any other digest is a wrong answer.
type workload struct {
	Name   string
	Args   []string
	Digest string
	Why    string
}

// workloadTable is the benchmark's workload set. Each Why is repeated
// verbatim in BENCHMARK.json (the self-check test holds them equal).
var workloadTable = []workload{
	{
		Name:   "paper-long",
		Args:   []string{"-scale", "long", "-jobs", "2"},
		Digest: "f7b4a1533f1762b6e7358f85d9356619edebfa7c009353a6e6402adeb8eb2a45",
		Why:    "What users run to regenerate every table and figure: all 13 programs, the worker pool, Figure 9 traces and Figure 10 groups; no single layer dominates.",
	},
	{
		Name:   "mine-heavy",
		Args:   []string{"-scale", "long", "-jobs", "1", "-only", "variance", "-seeds", "3", "-bench", "health,mcf,ft,analyzer"},
		Digest: "c5bb5c13f3ccb5fbca3ccdbef634e466974e61c8a5224351c08d70bf20286752",
		Why:    "One profile serves several inputs on programs with long collapsed hot-reference strings, so HDS mining plus planning is over half the time.",
	},
	{
		Name:   "sim-heavy",
		Args:   []string{"-scale", "long", "-jobs", "1", "-only", "variance", "-seeds", "10", "-bench", "roms,perl"},
		Digest: "36556efc84bef6060850e14e464789270300ac052d21df772fbcbc24481abb7a",
		Why:    "Same code path as mine-heavy but evaluation simulation is most of each seed: the control for mining changes and the target for simulator ones.",
	},
	{
		Name:   "stream-capture",
		Args:   []string{"-scale", "long", "-jobs", "1", "-only", "table5", "-capture", "-stream", "-bench", "health,leela,analyzer"},
		Digest: "cc2123021286784516bc294869df3e04a4606f1abcdd6169679734a916212e44",
		Why:    "Profiles spill to disk and stream-decode, and every long-run evaluation trace is recorded in memory and re-analyzed: the trace layer and peak memory.",
	},
}

// e2eMetric is a number a user of prefix-bench sees, measured on the
// child process from outside. Bound is the share of the parent's median
// by which the metric may worsen before a change counts as a regression;
// Drift is the set-to-set median drift measured on the commit that fixed
// the bound: the worst workload's, between two suite runs of seven
// interleaved rounds each (README.md, "Measured spread").
type e2eMetric struct {
	Name, Unit, Better string
	Bound, Drift       float64
}

var e2eMetrics = []e2eMetric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Drift: 0.115},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, Drift: 0.109},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Drift: 0.106},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Drift: 0.194},
}

// layerMetric is one number from the traced replica run. Moves and On
// name the end-to-end metric and the workload a change to this layer
// should move; "none" marks a control, and On "every" a run total.
type layerMetric struct {
	Name, Unit, Better string
	Moves, On          string
}

var layerMetrics = []layerMetric{
	// Mining and planning.
	{"hds.lcs_s", "s", "lower", "wall_s", "mine-heavy"},
	{"hds.sequitur_s", "s", "lower", "wall_s", "mine-heavy"},
	{"hds.collapse_s", "s", "lower", "wall_s", "mine-heavy"},
	{"prefix.plan_s", "s", "lower", "wall_s", "mine-heavy"},
	{"prefix.plan_calls", "count", "lower", "cpu_s", "mine-heavy"},
	{"hds.refs", "count", "lower", "cpu_s", "mine-heavy"},
	{"hds.streams_lcs", "count", "higher", "cpu_s", "mine-heavy"},
	{"hds.lcs_streams_per_mref", "1/Mref", "higher", "cpu_s", "mine-heavy"},
	{"hds.alloc_mb", "MB", "lower", "cpu_s", "mine-heavy"},
	{"prefix.alloc_mb", "MB", "lower", "cpu_s", "mine-heavy"},
	// Evaluation simulation.
	{"eval.baseline_s", "s", "lower", "wall_s", "sim-heavy"},
	{"eval.hds_s", "s", "lower", "wall_s", "sim-heavy"},
	{"eval.halo_s", "s", "lower", "wall_s", "sim-heavy"},
	{"eval.prefix_s", "s", "lower", "wall_s", "sim-heavy"},
	{"machine.eval_events", "count", "lower", "wall_s", "sim-heavy"},
	{"machine.eval_mevents_per_s", "Mevents/s", "higher", "wall_s", "sim-heavy"},
	{"machine.alloc_mb", "MB", "lower", "cpu_s", "sim-heavy"},
	// Profiling, trace analysis and long-run capture.
	{"machine.profile_s", "s", "lower", "wall_s", "stream-capture"},
	{"machine.profile_events", "count", "lower", "wall_s", "stream-capture"},
	{"trace.analyze_s", "s", "lower", "wall_s", "stream-capture"},
	{"trace.analyze_mevents_per_s", "Mevents/s", "higher", "wall_s", "stream-capture"},
	{"capture.longrun_pct", "%", "lower", "wall_s", "stream-capture"},
	{"machine.longrun_events", "count", "lower", "peak_rss_mb", "stream-capture"},
	{"trace.alloc_mb", "MB", "lower", "peak_rss_mb", "stream-capture"},
	// Paper-only stages.
	{"pipeline.figure9_pct", "%", "lower", "wall_s", "paper-long"},
	{"pipeline.figure10_pct", "%", "lower", "wall_s", "paper-long"},
	{"report.render_s", "s", "lower", "peak_rss_mb", "paper-long"},
	// Controls: under 0.3% of every workload.
	{"hotness.select_s", "s", "lower", "none", "every"},
	{"hotness.hot_objects", "count", "higher", "none", "every"},
	{"hotness.coverage_pct", "%", "higher", "none", "every"},
	{"baselines.plan_s", "s", "lower", "none", "every"},
	// Run totals.
	{"traced_total_s", "s", "lower", "wall_s", "every"},
	{"untraced_total_s", "s", "lower", "wall_s", "every"},
	{"trace_overhead_pct", "%", "lower", "none", "every"},
	{"coverage_pct", "%", "higher", "none", "every"},
	{"cli_gap_s", "s", "lower", "wall_s", "stream-capture"},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Command prefix-explain answers "why is this benchmark slow, and what
// did PreFix do about it" — the explainability join of the evaluation.
// It runs the comparison suite with per-site miss attribution on, then
// for each benchmark prints the top allocation sites by baseline
// LLC-miss share, each site's cost under the best PreFix variant, and
// the decision ledger's recorded reasons for how the planner classified
// and placed that site's objects.
//
// Usage:
//
//	prefix-explain -bench mcf                 # one benchmark, top sites
//	prefix-explain -bench mcf,health -top 5   # several, 5 sites each
//	prefix-explain -bench mcf -json           # machine-readable documents
//	prefix-explain -bench mcf -ledger-dir d/  # also dump the full ledgers
//	prefix-explain -bench mcf -scale long     # paper-scale inputs
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"prefix/internal/obsflags"
	"prefix/internal/pipeline"
	core "prefix/internal/prefix"
	"prefix/internal/report"
	"prefix/internal/workloads"
)

// errUsage marks bad invocations; main exits 2 for them, matching flag
// parsing errors.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "prefix-explain:", err)
	os.Exit(1)
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("prefix-explain", flag.ContinueOnError)
	var (
		bench     = fs.String("bench", "", "benchmark name, or a comma-separated list (required)")
		scale     = fs.String("scale", "bench", "evaluation scale: bench or long")
		jobs      = fs.Int("jobs", pipeline.DefaultJobs(), "run up to N benchmark evaluations concurrently")
		top       = fs.Int("top", 3, "sites to explain per benchmark, ranked by baseline LLC-miss share")
		asJSON    = fs.Bool("json", false, "emit the explain documents as JSON instead of text")
		ledgerDir = fs.String("ledger-dir", "", "also write each best variant's full decision ledger to <dir>/<benchmark>.ledger.json")
		table     = fs.Bool("table", false, "append the compact attribution table (the prefix-bench -attrib format)")
		obsf      = obsflags.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if *bench == "" {
		fs.Usage()
		return errUsage
	}
	if *scale != "long" && *scale != "bench" {
		return fmt.Errorf("unknown -scale %q (valid: long, bench)", *scale)
	}
	if *jobs < 1 {
		return fmt.Errorf("-jobs must be at least 1 (got %d)", *jobs)
	}
	if *top < 1 {
		return fmt.Errorf("-top must be at least 1 (got %d)", *top)
	}
	names, err := workloads.ResolveList(*bench)
	if err != nil {
		return err
	}

	sess, err := obsf.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()

	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = *scale == "bench"
	opt.Attribution = true
	// The documents read only the baseline and the best PreFix run.
	opt.Demand = pipeline.Demanding(pipeline.StrategyBaseline | pipeline.StrategyPreFix)
	opt.Progress = sess.Progress()
	opt.Metrics = sess.Metrics
	opt.Tracer = sess.Tracer
	opt.Perf = sess.Perf

	cmps, err := pipeline.RunSuite(names, opt, *jobs)
	if err != nil {
		return err
	}

	var docs []*pipeline.Explain
	for _, c := range cmps {
		ex, err := pipeline.BuildExplain(c, *top)
		if err != nil {
			return err
		}
		docs = append(docs, ex)
	}

	if *ledgerDir != "" {
		if err := os.MkdirAll(*ledgerDir, 0o755); err != nil {
			return err
		}
		for _, c := range cmps {
			led := c.Summaries[c.Best].Ledger
			path := filepath.Join(*ledgerDir, c.Benchmark+".ledger.json")
			lf, lerr := os.Create(path)
			if lerr != nil {
				return lerr
			}
			if lerr := led.WriteJSON(lf); lerr != nil {
				lf.Close()
				return lerr
			}
			if lerr := lf.Close(); lerr != nil {
				return lerr
			}
			fmt.Fprintf(os.Stderr, "%s: %d decisions written to %s\n", c.Benchmark, led.Len(), path)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			return err
		}
	} else {
		for i, ex := range docs {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			writeExplain(stdout, ex)
		}
	}
	if *table {
		fmt.Fprintln(stdout)
		return report.AttributionTable(stdout, cmps, *top)
	}
	return nil
}

// writeExplain renders one benchmark's document as indented text.
func writeExplain(w io.Writer, ex *pipeline.Explain) {
	fmt.Fprintf(w, "%s: best variant %s (%d planning decisions recorded)\n", ex.Benchmark, ex.Variant, ex.Decisions)
	fmt.Fprintf(w, "  LLC misses: %d baseline -> %d best (%s)\n",
		ex.BaselineLLCMisses, ex.BestLLCMisses, deltaPct(ex.BaselineLLCMisses, ex.BestLLCMisses))
	for _, s := range ex.Sites {
		label := fmt.Sprintf("site %d", s.Site)
		if s.Site == 0 {
			label = "unattributed (globals/stacks/freed)"
		}
		fmt.Fprintf(w, "  %s: %.1f%% -> %.1f%% of LLC misses (%d -> %d), %.3g -> %.3g stall cycles\n",
			label, s.Baseline.SharePct, s.Best.SharePct,
			s.Baseline.LLCMisses, s.Best.LLCMisses,
			s.Baseline.StallCycles, s.Best.StallCycles)
		for _, d := range s.Decisions {
			fmt.Fprintf(w, "    %s/%s: %s\n", d.Stage, d.Kind, d.Reason)
		}
		if extra := s.Placements - countPlacements(s); extra > 0 {
			fmt.Fprintf(w, "    (+%d more placement decisions; see -ledger-dir for the full ledger)\n", extra)
		}
		if len(s.Decisions) == 0 && s.Site != 0 {
			fmt.Fprintln(w, "    (no plan decisions: site not hot enough to place)")
		}
	}
}

func countPlacements(s pipeline.SiteExplain) int {
	n := 0
	for _, d := range s.Decisions {
		if d.Stage == core.StagePlacement {
			n++
		}
	}
	return n
}

func deltaPct(base, cur uint64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(float64(cur)-float64(base))/float64(base))
}

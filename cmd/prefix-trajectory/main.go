// Command prefix-trajectory reads the committed benchstore snapshots
// (BENCH_*.json) and prints each benchmark's trajectory across them:
// host events/sec, the analyze stage's own throughput (schema 4; "n/a"
// on older snapshots), and simulated L1/LLC miss rates per run, oldest
// first, with the first-to-last drift summarized. It answers "is the
// harness getting faster or slower over the project's history" from
// artifacts already in the repository — no benchmarks are run.
//
// Usage:
//
//	prefix-trajectory                   # all BENCH_*.json in the repo root
//	prefix-trajectory -dir snapshots/   # snapshots from another directory
//	prefix-trajectory -bench mcf        # one benchmark only
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"prefix/internal/benchstore"
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
	fmt.Fprintln(os.Stderr, "prefix-trajectory:", err)
	os.Exit(1)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("prefix-trajectory", flag.ContinueOnError)
	var (
		dir   = fs.String("dir", ".", "directory holding the BENCH_*.json snapshots")
		bench = fs.String("bench", "", "restrict to one benchmark (default: all seen)")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}

	runs, err := loadRuns(*dir)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("no BENCH_*.json snapshots in %s (record one with prefix-bench -record)", *dir)
	}

	fmt.Fprintf(stdout, "%d snapshots, %s .. %s\n", len(runs), runs[0].Timestamp, runs[len(runs)-1].Timestamp)

	for _, name := range benchNames(runs, *bench) {
		points := collect(runs, name)
		if len(points) == 0 {
			return fmt.Errorf("benchmark %q appears in no snapshot", name)
		}
		fmt.Fprintf(stdout, "\n%s:\n", name)
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  timestamp\tgit\tevents/sec\tanalysis ev/s\tL1 miss\tLLC miss\tdelta t")
		for _, p := range points {
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%.2f%%\t%.3f%%\t%+.1f%%\n",
				p.run.Timestamp, orShort(p.run.GitSHA),
				eventsPerSec(p.b), analysisEPS(p.b), p.b.L1MissPct, p.b.LLCMissPct, p.b.TimeDeltaPct)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		if len(points) > 1 {
			first, last := points[0].b, points[len(points)-1].b
			fmt.Fprintf(stdout, "  trend over %d runs: events/sec %s, L1 miss %+.2fpp, LLC miss %+.3fpp\n",
				len(points), trendPct(hostEPS(first), hostEPS(last)),
				last.L1MissPct-first.L1MissPct, last.LLCMissPct-first.LLCMissPct)
		}
	}
	return nil
}

// point is one benchmark's row in one snapshot.
type point struct {
	run *benchstore.Run
	b   benchstore.Benchmark
}

// loadRuns reads every BENCH_*.json under dir, oldest timestamp first.
// Snapshot filenames embed the timestamp, but the document field is the
// source of truth (hand-renamed files still sort correctly).
func loadRuns(dir string) ([]*benchstore.Run, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	var runs []*benchstore.Run
	for _, path := range matches {
		r, err := benchstore.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Timestamp < runs[j].Timestamp })
	return runs, nil
}

// benchNames returns the benchmarks to report: the explicit pick, or
// every name seen across the snapshots in first-appearance order.
func benchNames(runs []*benchstore.Run, only string) []string {
	if only != "" {
		return []string{only}
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range runs {
		for _, b := range r.Benchmarks {
			if !seen[b.Name] {
				seen[b.Name] = true
				names = append(names, b.Name)
			}
		}
	}
	return names
}

// collect pulls one benchmark's row from every snapshot that has it.
func collect(runs []*benchstore.Run, name string) []point {
	var points []point
	for _, r := range runs {
		for _, b := range r.Benchmarks {
			if b.Name == name {
				points = append(points, point{run: r, b: b})
			}
		}
	}
	return points
}

// hostEPS returns the host events/sec, or 0 when the snapshot predates
// the host-cost section (schema 1).
func hostEPS(b benchstore.Benchmark) float64 {
	if b.Host == nil {
		return 0
	}
	return b.Host.EventsPerSec
}

func eventsPerSec(b benchstore.Benchmark) string {
	if b.Host == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.0f", b.Host.EventsPerSec)
}

// analysisEPS renders the analyze stage's own throughput; pre-v4
// snapshots have no analysis section and render "n/a".
func analysisEPS(b benchstore.Benchmark) string {
	if b.Analysis == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.0f", b.Analysis.EventsPerSec)
}

// trendPct formats a first-to-last relative change, tolerating schema-1
// snapshots on either end.
func trendPct(first, last float64) string {
	if first == 0 || last == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(last-first)/first)
}

func orShort(sha string) string {
	if sha == "" {
		return "-"
	}
	base, dirty := strings.CutSuffix(sha, "-dirty")
	if len(base) > 12 {
		base = base[:12]
	}
	if dirty {
		return base + "-dirty"
	}
	return base
}

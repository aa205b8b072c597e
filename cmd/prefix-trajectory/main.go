// Command prefix-trajectory reads the committed benchstore snapshots
// (BENCH_*.json) and prints each benchmark's trajectory across them:
// host events/sec, the analyze stage's own throughput (schema 4; "n/a"
// on older snapshots), and simulated L1/LLC miss rates per run, oldest
// first. Each row shows the run configuration it was recorded with
// (scale, jobs, benchmark count), a row whose configuration differs
// from the row above is marked "*", and the drift is summarized only
// over the trailing rows that share the newest row's configuration:
// host cost measured on different work is not a trend. It answers "is
// the harness getting faster or slower over the project's history"
// from artifacts already in the repository — no benchmarks are run.
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
		fmt.Fprintln(tw, "  timestamp\tgit\tscale\tjobs\tbenchmarks\tevents/sec\tanalysis ev/s\tL1 miss\tLLC miss\tdelta t")
		var prev config
		changed := false
		for i, p := range points {
			c, mark := configOf(p.run), " "
			if i > 0 && c != prev {
				mark, changed = "*", true
			}
			prev = c
			fmt.Fprintf(tw, "%s %s\t%s\t%s\t%d\t%d\t%s\t%s\t%.2f%%\t%.3f%%\t%+.1f%%\n",
				mark, p.run.Timestamp, orShort(p.run.GitSHA), c.scale, c.jobs, c.benchmarks,
				eventsPerSec(p.b), analysisEPS(p.b), p.b.L1MissPct, p.b.LLCMissPct, p.b.TimeDeltaPct)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		if changed {
			fmt.Fprintln(stdout, "  * run configuration differs from the row above")
		}
		trail := trailing(points)
		cfg := configOf(trail[0].run)
		if len(trail) > 1 {
			first, last := trail[0].b, trail[len(trail)-1].b
			fmt.Fprintf(stdout, "  trend over %d runs: events/sec %s, L1 miss %+.2fpp, LLC miss %+.3fpp (%s)\n",
				len(trail), trendPct(hostEPS(first), hostEPS(last)),
				last.L1MissPct-first.L1MissPct, last.LLCMissPct-first.LLCMissPct, cfg)
		} else if len(points) > 1 {
			fmt.Fprintf(stdout, "  no trend: the newest run is the only one at %s\n", cfg)
		}
	}
	return nil
}

// point is one benchmark's row in one snapshot.
type point struct {
	run *benchstore.Run
	b   benchstore.Benchmark
}

// config is the run configuration a snapshot was recorded with. Host
// cost depends on it, so rows of different configurations measure
// different work.
type config struct {
	scale      string
	jobs       int
	benchmarks int
}

func configOf(r *benchstore.Run) config {
	return config{scale: r.Scale, jobs: r.Jobs, benchmarks: len(r.Benchmarks)}
}

func (c config) String() string {
	return fmt.Sprintf("scale %s, jobs %d, %d benchmarks", c.scale, c.jobs, c.benchmarks)
}

// trailing returns the newest points that share the newest point's run
// configuration, the only ones a trend may span.
func trailing(points []point) []point {
	cfg := configOf(points[len(points)-1].run)
	i := len(points) - 1
	for i > 0 && configOf(points[i-1].run) == cfg {
		i--
	}
	return points[i:]
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

package main

import (
	"strings"
	"testing"
)

func TestValidateArgs(t *testing.T) {
	cases := []struct {
		name        string
		only        string
		scale       string
		seeds       int
		jobs        int
		record      bool
		baseline    string
		regressPct  float64
		stream      bool
		streamChunk int
		attrib      bool
		heatmapDir  string
		wantErr     string // substring; "" = valid
	}{
		{"defaults", "", "long", 0, 4, false, "", 5, false, 0, false, "", ""},
		{"one artifact", "table3", "bench", 0, 1, false, "", 5, false, 0, false, "", ""},
		{"variance with seeds", "variance", "long", 5, 2, false, "", 5, false, 0, false, "", ""},
		{"variance case-insensitive", "VARIANCE", "long", 3, 1, false, "", 5, false, 0, false, "", ""},
		{"variance without seeds", "variance", "long", 0, 1, false, "", 5, false, 0, false, "", "-only variance requires -seeds"},
		{"unknown artifact", "table99", "long", 0, 1, false, "", 5, false, 0, false, "", "unknown -only artifact"},
		{"unknown scale", "", "huge", 0, 1, false, "", 5, false, 0, false, "", "unknown -scale"},
		{"zero jobs", "", "long", 0, 0, false, "", 5, false, 0, false, "", "-jobs must be at least 1"},
		{"negative jobs", "", "long", 0, -3, false, "", 5, false, 0, false, "", "-jobs must be at least 1"},
		{"negative seeds", "", "long", -1, 1, false, "", 5, false, 0, false, "", "-seeds must be non-negative"},
		{"record everything", "", "long", 0, 1, true, "", 5, false, 0, false, "", ""},
		{"record one table", "table3", "long", 0, 1, true, "", 5, false, 0, false, "", ""},
		{"baseline one figure", "figure11", "long", 0, 1, false, "BENCH_x.json", 5, false, 0, false, "", ""},
		{"record non-comparison artifact", "figure9", "long", 0, 1, true, "", 5, false, 0, false, "", "-record/-baseline snapshot the comparison suite"},
		{"baseline non-comparison artifact", "figure10", "long", 0, 1, false, "BENCH_x.json", 5, false, 0, false, "", "-record/-baseline snapshot the comparison suite"},
		{"negative regress-pct", "", "long", 0, 1, false, "BENCH_x.json", -1, false, 0, false, "", "-regress-pct must be non-negative"},
		{"stream with chunk", "", "long", 0, 1, false, "", 5, true, 4096, false, "", ""},
		{"stream default chunk", "", "long", 0, 1, false, "", 5, true, 0, false, "", ""},
		{"negative stream-chunk", "", "long", 0, 1, true, "", 5, true, -1, false, "", "-stream-chunk must be non-negative"},
		{"stream-chunk without stream", "", "long", 0, 1, false, "", 5, false, 512, false, "", "-stream-chunk only applies with -stream"},
		{"attribution artifact", "attribution", "long", 0, 1, false, "", 5, false, 0, true, "", ""},
		{"attribution recorded", "attribution", "long", 0, 1, true, "", 5, false, 0, true, "", ""},
		{"attribution without -attrib", "attribution", "long", 0, 1, false, "", 5, false, 0, false, "", "-only attribution requires -attrib"},
		{"heatmap-dir everything", "", "long", 0, 1, false, "", 5, false, 0, false, "out", ""},
		{"heatmap-dir figure9", "FIGURE9", "bench", 0, 1, false, "", 5, false, 0, false, "out", ""},
		{"heatmap-dir other artifact", "table3", "bench", 0, 1, false, "", 5, false, 0, false, "out", "-heatmap-dir only applies when Figure 9 runs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateArgs(c.only, c.scale, c.seeds, c.jobs, c.record, c.baseline, c.regressPct, c.stream, c.streamChunk, c.attrib, c.heatmapDir)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("validateArgs = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("validateArgs = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

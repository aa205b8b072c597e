package pipeline

import (
	"reflect"
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/machine"
	"prefix/internal/obs"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// tee delivers every batch, and the instruction counts, to an analyzer
// and to an in-memory recorder, so one run yields both the online
// analysis and the trace it must equal.
type tee struct {
	an  *trace.Analyzer
	rec *trace.Recorder
}

func newTee() *tee { return &tee{an: trace.NewAnalyzer(), rec: trace.NewRecorder()} }

func (t *tee) RecordBatch(evs []trace.Event) {
	t.an.RecordBatch(evs)
	t.rec.RecordBatch(evs)
}

func (t *tee) AddInstr(n uint64) {
	t.an.AddInstr(n)
	t.rec.AddInstr(n)
}

// check fails t unless the online analysis equals the analysis of the
// recorded trace.
func (t *tee) check(tb testing.TB, what string) {
	tb.Helper()
	if !reflect.DeepEqual(t.an.Finish(), trace.Analyze(t.rec.Trace())) {
		tb.Errorf("%s: online analysis differs from the analysis of the recorded trace", what)
	}
}

// TestOnlineAnalysisMatchesRecordedTrace is the differential check of
// analyzing while recording, on every registered workload at bench
// scale: the profile run under the baseline allocator (the production
// profile against the trace of an identical run), and the Figure 9 runs
// of the evaluation input under the baseline and the best PreFix plan.
// The multithreaded profile group is covered by
// TestOnlineGroupAnalysisMatchesRecordedTrace.
func TestOnlineAnalysisMatchesRecordedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's profile and Figure 9 evaluation")
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := fastOpt()
			prof, err := CollectProfile(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder()
			m := machine.New(baselines.NewBaseline(opt.Cache.Cost), opt.Cache, machine.WithRecorder(rec))
			spec.Program.Run(m, spec.Profile)
			m.Finish()
			if !reflect.DeepEqual(prof.Analysis, trace.Analyze(rec.Trace())) {
				t.Error("profile: online analysis differs from the analysis of the recorded trace")
			}

			opt.Demand = Demanding(StrategyPreFix)
			cmp, err := RunBenchmark(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			tees := [2]*tee{newTee(), newTee()}
			if err := cmp.rerunBaselineAndBest(opt, 1, func(i int, r rerun) RunResult { return r.record(tees[i]) }); err != nil {
				t.Fatal(err)
			}
			tees[0].check(t, "baseline evaluation")
			tees[1].check(t, "best-plan evaluation")
		})
	}
}

// TestOnlineGroupAnalysisMatchesRecordedTrace: the Figure 10 profile,
// one machine group of threads sharing a recorder, analyzes to the
// analysis of the trace the group records.
func TestOnlineGroupAnalysisMatchesRecordedTrace(t *testing.T) {
	for _, name := range []string{"mysql", "mcf"} {
		spec, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		mt, ok := spec.Program.(workloads.MultiThreaded)
		if !ok {
			t.Fatalf("%s is not multithreaded", name)
		}
		rec := newTee()
		profileGroup(spec, mt, fastOpt(), rec)
		rec.check(t, name+" group profile")
	}
}

// TestProfilePeakBufferedEvents: the default profile path holds no trace
// — the recorder never buffers more than one machine batch.
func TestProfilePeakBufferedEvents(t *testing.T) {
	spec, err := workloads.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpt()
	opt.Metrics = obs.NewRegistry()
	prof, err := CollectProfile(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.Metrics.Counter("prefix_trace_recorded_events_total", "benchmark", "mcf").Value(); got != uint64(prof.Analysis.Events) {
		t.Errorf("recorded events = %d, want %d", got, prof.Analysis.Events)
	}
	if peak := opt.Metrics.Gauge("prefix_trace_peak_buffered_events", "benchmark", "mcf").Value(); peak > 256 || peak <= 0 {
		t.Errorf("peak buffered events = %v, want within one 256-event batch", peak)
	}
}

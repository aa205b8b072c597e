package machine_test

import (
	"bytes"
	"reflect"
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// fanout hands every batch and instruction count to each recorder in
// turn, so one run feeds all of them the same stream.
type fanout []trace.EventRecorder

func (f fanout) RecordBatch(evs []trace.Event) {
	for _, r := range f {
		r.RecordBatch(evs)
	}
}

func (f fanout) AddInstr(n uint64) {
	for _, r := range f {
		r.AddInstr(n)
	}
}

// TestMachineRecordersAgree is the writer differential on real
// profiling runs. One run of each benchmark feeds, through the
// machine's 256-event batches, the in-memory Recorder, an Analyzer and
// spill recorders at chunk sizes aligned and unaligned with the batch.
// Each spill file must be byte-identical to the in-memory trace written
// in one batch at the same chunk size (what Trace.Write does at the
// default size), decode to that trace, and stream-analyze to exactly
// the Analyzer's result.
func TestMachineRecordersAgree(t *testing.T) {
	chunkSizes := []int{1, 255, 256, 257, trace.DefaultChunkEvents}
	for _, name := range []string{"ft", "health"} {
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			rec, an := trace.NewRecorder(), trace.NewAnalyzer()
			recs := fanout{rec, an}
			files := make([]bytes.Buffer, len(chunkSizes))
			spills := make([]*trace.SpillRecorder, len(chunkSizes))
			for i, n := range chunkSizes {
				if spills[i], err = trace.NewSpillRecorder(&files[i], n); err != nil {
					t.Fatal(err)
				}
				recs = append(recs, spills[i])
			}
			cfg := cachesim.ScaledConfig()
			m := machine.New(baselines.NewBaseline(cfg.Cost), cfg, machine.WithRecorder(recs))
			spec.Program.Run(m, spec.Profile)
			m.Finish()
			tr := rec.Trace()
			online := an.Finish()

			for i, n := range chunkSizes {
				if err := spills[i].Close(); err != nil {
					t.Fatalf("chunk %d: %v", n, err)
				}
				var want bytes.Buffer
				if n == trace.DefaultChunkEvents {
					err = tr.Write(&want)
				} else {
					err = writeWhole(&want, tr, n)
				}
				if err != nil {
					t.Fatal(err)
				}
				got := files[i].Bytes()
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("chunk %d: recorded file (%d bytes) differs from the written trace (%d bytes)",
						n, len(got), want.Len())
				}
				decoded, err := trace.Read(bytes.NewReader(got))
				if err != nil {
					t.Fatalf("chunk %d: %v", n, err)
				}
				if !reflect.DeepEqual(decoded, tr) {
					t.Fatalf("chunk %d: file decodes to a different trace", n)
				}
				sr, err := trace.NewStreamReader(bytes.NewReader(got))
				if err != nil {
					t.Fatal(err)
				}
				streamed, err := trace.AnalyzeSource(sr)
				if err != nil {
					t.Fatalf("chunk %d: %v", n, err)
				}
				if !reflect.DeepEqual(streamed, online) {
					t.Fatalf("chunk %d: stream analysis differs from the analyzer on the run", n)
				}
			}
		})
	}
}

// writeWhole writes tr the way Trace.Write does, at chunk size n: the
// whole event slice as one batch.
func writeWhole(w *bytes.Buffer, tr *trace.Trace, n int) error {
	sp, err := trace.NewSpillRecorder(w, n)
	if err != nil {
		return err
	}
	sp.RecordBatch(tr.Events)
	sp.AddInstr(tr.Instr)
	return sp.Close()
}

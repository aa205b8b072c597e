package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// TestAppendBatchByteParity: appending the stream to the spill recorder
// in batches of any size must produce the same bytes as batches of one
// for every batch/chunk alignment — including batches that span chunk
// boundaries — because the delta encoder state runs continuously across
// batches and chunks.
func TestAppendBatchByteParity(t *testing.T) {
	tr := record()
	for _, chunk := range []int{4, 5} {
		want := writeChunked(t, tr, chunk) // batches of one
		for _, batch := range []int{1, 2, 3, 7, len(tr.Events)} {
			var buf bytes.Buffer
			sp, err := NewSpillRecorder(&buf, chunk)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(tr.Events); i += batch {
				sp.RecordBatch(tr.Events[i:min(i+batch, len(tr.Events))])
			}
			sp.AddInstr(tr.Instr)
			if err := sp.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("chunk %d, batch size %d: encoded bytes differ from batches of one", chunk, batch)
			}
		}
	}
}

// TestRecorderRecordBatch: the in-memory recorder appends batches in
// order, however the stream is split.
func TestRecorderRecordBatch(t *testing.T) {
	tr := record()
	r := NewRecorder()
	r.RecordBatch(tr.Events[:4])
	r.RecordBatch(tr.Events[4:5])
	r.RecordBatch(tr.Events[5:])
	r.AddInstr(tr.Instr)
	got := r.Trace()
	if !reflect.DeepEqual(got.Events, tr.Events) || got.Instr != tr.Instr {
		t.Errorf("RecordBatch trace differs: %d events instr %d", len(got.Events), got.Instr)
	}
}

// TestSpillRecorderRecordBatchParity: the whole trace delivered to the
// spill recorder in one batch must yield the bytes of batches of one and
// round-trip the trace.
func TestSpillRecorderRecordBatchParity(t *testing.T) {
	tr := record()
	for _, chunk := range []int{4, 5} {
		var buf bytes.Buffer
		sp, err := NewSpillRecorder(&buf, chunk)
		if err != nil {
			t.Fatal(err)
		}
		sp.RecordBatch(tr.Events)
		sp.AddInstr(tr.Instr)
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), writeChunked(t, tr, chunk)) {
			t.Errorf("chunk %d: bulk spill bytes differ from batches of one", chunk)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Events, tr.Events) || got.Instr != tr.Instr {
			t.Errorf("chunk %d: bulk spill does not round-trip the trace", chunk)
		}
	}
}

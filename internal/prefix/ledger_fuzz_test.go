package prefix

import (
	"bytes"
	"testing"
)

// FuzzReadLedger: ReadLedgerJSON never panics, the ledger queries
// never panic on what it accepts, and an accepted ledger is a fixed
// point of one write/read round trip: writing it, reading that back and
// writing again gives the same bytes.
func FuzzReadLedger(f *testing.F) {
	cfg := DefaultPlanConfig("synth", VariantHDSHot)
	cfg.Ledger = NewLedger()
	if _, _, err := BuildPlan(synthTrace(), cfg); err != nil {
		f.Fatal(err)
	}
	var recorded bytes.Buffer
	if err := cfg.Ledger.WriteJSON(&recorded); err != nil {
		f.Fatal(err)
	}
	f.Add(recorded.Bytes())
	f.Add([]byte(`{"decisions":[{"stage":"placement","kind":"slot-assigned","counter":-1,"sites":[],"object":3,"reason":"\xff"}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"decisions":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		led, err := ReadLedgerJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := 0
		for _, stage := range []string{StageMining, StageReconstitution, StageContext, StageRecycling, StagePlacement} {
			n += len(led.Stage(stage))
		}
		if n > led.Len() {
			t.Fatalf("stages hold %d decisions of %d", n, led.Len())
		}
		for _, d := range led.Decisions {
			led.ForCounter(d.Counter)
			for _, s := range d.Sites {
				if len(led.ForSite(s)) == 0 {
					t.Fatalf("site %d of a decision has no decisions", s)
				}
			}
		}
		var first, second bytes.Buffer
		if err := led.WriteJSON(&first); err != nil {
			t.Fatalf("writing an accepted ledger: %v", err)
		}
		again, err := ReadLedgerJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading an accepted ledger: %v\n%s", err, first.Bytes())
		}
		if err := again.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("ledger is not a round-trip fixed point:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}

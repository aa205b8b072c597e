package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A sample must count as failed for each way an invocation can go wrong,
// and carry its timings when it goes right. The stand-in for
// prefix-bench is a shell script whose first argument picks a behaviour.
func TestMeasureFailureAccounting(t *testing.T) {
	script := filepath.Join(t.TempDir(), "fake-prefix-bench")
	body := `#!/bin/sh
echo "[suite 1/1] fake running" >&2
case "$1" in
ok) echo out ;;
wrong) echo other ;;
exit) echo out; exit 3 ;;
spill) echo out; : > "$TMPDIR/prefix-spill-1.pfxt" ;;
hang) exec sleep 30 ;;
esac
`
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	r := &runner{bin: script, tmp: t.TempDir()}
	okDigest := digest([]byte("out\n"))
	for _, c := range []struct {
		mode, wantErr string
	}{
		{"ok", ""},
		{"wrong", "stdout sha256"},
		{"exit", "exit status 3"},
		{"spill", "spill file"},
		{"hang", "timed out"},
	} {
		w := workload{Name: "fake", Args: []string{c.mode}, Digest: okDigest}
		s := r.measure(context.Background(), w, 2*time.Second)
		switch {
		case c.wantErr == "" && s.err != nil:
			t.Errorf("%s: unexpected failure: %v", c.mode, s.err)
		case c.wantErr != "" && (s.err == nil || !strings.Contains(s.err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one mentioning %q", c.mode, s.err, c.wantErr)
		}
		if s.wall <= 0 || s.setup <= 0 {
			t.Errorf("%s: wall %v setup %v, want both measured", c.mode, s.wall, s.setup)
		}
	}
	if left, _ := os.ReadDir(r.tmp); len(left) != 0 {
		t.Errorf("%d child TMPDIRs left behind", len(left))
	}
}

package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteText(t *testing.T) {
	tr := record()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"alloc", "free", "realloc", "access", "read", "write", "site=1", "site=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != len(tr.Events)+1 {
		t.Errorf("lines = %d, want %d (events + header)", lines, len(tr.Events)+1)
	}
}

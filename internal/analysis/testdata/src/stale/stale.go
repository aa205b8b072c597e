// Package stale is the stale-suppression fixture, run under mapiter: a
// //lint:ignore that suppresses a real finding is accepted; one left
// behind after its finding went away is reported; one that also names an
// analyzer that did not run is not judged.
package stale

import (
	"fmt"
	"io"
	"sort"
)

// dump writes in map order; the live directive suppresses the finding.
func dump(w io.Writer, m map[string]int) {
	//lint:ignore mapiter fixture: the caller sorts the lines it reads back
	for k, v := range m {
		fmt.Fprintf(w, "%s %d\n", k, v)
	}
}

// dumpSorted learned to sort its keys, but its directive stayed behind.
func dumpSorted(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	/* want `stale //lint:ignore mapiter: it suppresses no diagnostic` */ //lint:ignore mapiter fixture: left behind when the loop learned to sort
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, m[k])
	}
}

// count names an analyzer that did not run in this pass, so its
// directive is not judged.
func count(m map[string]int) int {
	//lint:ignore mapiter,nodeterminism fixture: only half of this directive's analyzers ran
	return len(m)
}

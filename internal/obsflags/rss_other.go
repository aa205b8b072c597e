//go:build !linux

package obsflags

// peakRSS reports no peak resident set size: getrusage's maxrss is read
// only on Linux, where its unit is known.
func peakRSS() (uint64, bool) { return 0, false }

//go:build linux

package obsflags

import "syscall"

// peakRSS returns the process's peak resident set size in bytes, as
// getrusage reports it.
func peakRSS() (uint64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return uint64(ru.Maxrss) * 1024, true // Linux reports KiB
}

//go:build unix

package prof

import "syscall"

// PeakRSSBytes reports the process's high-water resident set size via
// getrusage, 0 where it cannot be read. Unlike heap statistics it counts
// everything the kernel charged the process: stacks, runtime overhead and
// arena slack. It is process-wide, so under `go test` it includes whatever
// earlier tests peaked at. Linux reports ru_maxrss in KiB, darwin/BSD in
// bytes; the result is normalized to bytes.
func PeakRSSBytes() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if ru.Maxrss <= 0 {
		return 0
	}
	return uint64(ru.Maxrss) * rusageRSSUnit
}

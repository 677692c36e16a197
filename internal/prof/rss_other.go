//go:build !unix

package prof

// PeakRSSBytes is unavailable without getrusage; callers treat 0 as
// "unsupported".
func PeakRSSBytes() uint64 { return 0 }

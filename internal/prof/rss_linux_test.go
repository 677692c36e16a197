package prof

import "testing"

// On Linux getrusage always reports a high-water RSS. Any Go test binary
// holds more than a MiB resident, so a smaller reading means the KiB
// normalization broke.
func TestPeakRSSBytesLinux(t *testing.T) {
	if got := PeakRSSBytes(); got < 1<<20 {
		t.Fatalf("PeakRSSBytes() = %d, want > 1 MiB", got)
	}
}

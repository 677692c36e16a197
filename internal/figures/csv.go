package figures

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
)

// CSV side-channel: given a directory, every figure's Render also writes
// its data series there as one CSV file in long format, so the regenerated
// rows/series are machine-comparable against the paper's plots.

// writeCSV writes dir/name.csv; a no-op when dir is empty.
func writeCSV(dir, name string, head []string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(head) //nolint:errcheck // sticky; WriteAll reports it
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// WriteFile reports a failed Close (buffered data hitting a full disk)
	// too, so it fails the figure rather than vanishing.
	return os.WriteFile(filepath.Join(dir, name+".csv"), buf.Bytes(), 0o666)
}

// ftoa formats a CSV value.
func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', 8, 64) }

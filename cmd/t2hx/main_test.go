package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The list flags take plain base-10 integers. fmt.Sscanf's %d used to stop
// at the first non-digit, so "4k" ran 4-byte cells and "1e6" ran 1-byte
// ones; now a malformed entry is an error that names it.
func TestParseSizes(t *testing.T) {
	cases := []struct {
		in   string
		want []int64 // nil: the entry named by bad must be rejected
		bad  string
	}{
		{"4096,65536", []int64{4096, 65536}, ""},
		{"", []int64{1 << 20}, ""}, // fallback to -size
		{" ", []int64{1 << 20}, ""},
		{"64, 7 ", []int64{64, 7}, ""},
		{"4k,1e6", nil, `"4k"`},
		{"64,1e6", nil, `"1e6"`},
		{"12x", nil, `"12x"`},
		{"0", nil, `"0"`},
		{"64,,128", nil, `""`},
	}
	for _, c := range cases {
		got, err := parseSizes(c.in, 1<<20)
		if c.want == nil {
			if err == nil || !strings.Contains(err.Error(), "-sizes entry "+c.bad) {
				t.Errorf("parseSizes(%q) = %v, %v; want an error naming %s", c.in, got, err, c.bad)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseSizes(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestParseCounts(t *testing.T) {
	const def = "0,3,6"
	cases := []struct {
		in   string
		want []int
		bad  string
	}{
		{"", []int{0, 3, 6}, ""}, // fallback to the default list
		{"0, 7 ,15", []int{0, 7, 15}, ""},
		{"3x", nil, `"3x"`},
		{"4k", nil, `"4k"`},
		{"1e6", nil, `"1e6"`},
		{"-1", nil, `"-1"`},
	}
	for _, c := range cases {
		got, err := parseCounts(c.in, def)
		if c.want == nil {
			if err == nil || !strings.Contains(err.Error(), "-counts entry "+c.bad) {
				t.Errorf("parseCounts(%q) = %v, %v; want an error naming %s", c.in, got, err, c.bad)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseCounts(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

// t2hx runs one command line in-process and returns its exit status and
// what it printed on stdout.
func t2hx(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	code := dispatch(args)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// Every subcommand runs end to end at -small scale, writing its artifacts
// into a temporary directory. None prints the process-wide table-cache
// totals on stdout: at -j 2 (sweep, degraded) they vary between runs of
// the same command, and stdout must be identical at any -j. Every stream
// a case writes is finished, a failed faults scenario's included: a trace
// parses as one JSON document, and a JSONL stream ends with its closing
// line. The cases that write telemetry pin their output bytes by SHA-256:
// stdout, with the temporary directory written as $DIR, and every file.
func TestSubcommandsRunSmall(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	cases := []struct {
		args    []string
		code    int               // exit status
		want    string            // on stdout
		files   []string          // written, non-empty
		digests map[string]string // "stdout" or a file name -> SHA-256
	}{
		{args: []string{"list"}, want: "4: HyperX / PARX / clustered"},
		{args: []string{"run", "-small", "-combo", "2", "-bench", "imb:alltoall", "-n", "16", "-size", "4096",
			"-trials", "2", "-counters", "2", "-metrics-out", out("run.jsonl"), "-trace-out", out("run.json")},
			want: "top 2 channels by XmitWait", files: []string{"run.jsonl", "run.json"},
			digests: map[string]string{
				"stdout":    "af7abd31d3dd4f1da64a0cd387a96ef5920e3161b7da1fbe255e86bb81272691",
				"run.jsonl": "a90de620428bdd23f40760a0dfef0c0989cfebc3dca9805ecbb57a7d445eded8",
				"run.json":  "a33647fb80256b8dca860ea96dec5ebffa4162db3ae563600d3deb13416698ef",
			}},
		{args: []string{"run", "-small", "-planes", "ft:ftree,hyperx:parx", "-policy", "roundrobin", "-bench", "mpigraph",
			"-n", "8", "-size", "4096", "-counters", "1", "-metrics-out", out("planes.jsonl"), "-trace-out", out("planes.json")},
			want: "[hyperx/parx]", files: []string{"planes.jsonl", "planes.json"},
			digests: map[string]string{
				"stdout":       "10976dde4c7d33241ea584045523d45fbb9876629b8ba605400ba94ab9552c75",
				"planes.jsonl": "ef40d234810ca652f690cf0b1bb23633acb729b3507af21e666752d0e2cee9ac",
				"planes.json":  "32c3c26b2fe7428b3a03e1e67bdadc5ae76a3cc9ebe14c3739694d6257113d1e",
			}},
		{args: []string{"sweep", "-small", "-bench", "incast:4", "-n", "16", "-sizes", "4096,8192", "-trials", "1",
			"-j", "2", "-progress", "0", "-progress-out", out("sweep-progress.jsonl")},
			want: "HyperX / PARX / clustered               8192 B", files: []string{"sweep-progress.jsonl"}},
		{args: []string{"faults", "-small", "-n", "16", "-size", "32768", "-failures", "2", "-j", "2",
			"-metrics-out", out("f.jsonl"), "-trace-out", out("f.json")},
			want: "lost 0 of", files: []string{
				"f.fattree-ftree.jsonl", "f.hyperx-dfsssp.jsonl", "f.hyperx-parx.jsonl",
				"f.fattree-ftree.json", "f.hyperx-dfsssp.json", "f.hyperx-parx.json"},
			digests: map[string]string{
				"stdout":                "864b4320de41546bb4b1cf8ac3a2bd6248af452cbf7042e2796b826c42a8a07a",
				"f.fattree-ftree.jsonl": "8d6c73051633a558cb1466b97acd641e96a2d9ee7391bf9964dc9518ebfcd2eb",
				"f.hyperx-dfsssp.jsonl": "637844a9d50b62979dc71589dd8f0125d7bb2e96d9a804a8748887613fb28f83",
				"f.hyperx-parx.jsonl":   "71091faf9a72795929afdcaab5b58f008f00c3d592527b719d48abbbacbcdeba",
				"f.fattree-ftree.json":  "656d0ade3ccbdb59662c019fccf332c27d5706229d945dcc50d24a439e7b7ed1",
				"f.hyperx-dfsssp.json":  "3b1982c7da3161ed978cce556157e69bc3ebb8ab51bdafb0e9b8b516ae899a0d",
				"f.hyperx-parx.json":    "95901bc59377f7facf80666f25f84b60fbf6a8c567911a76433db65c33c831c5",
			}},
		// A 1 s detection delay deadlocks the faulted alltoall: the
		// scenario fails, and its streams are still finished.
		{args: []string{"faults", "-small", "-combo", "0", "-detect", "1s",
			"-metrics-out", out("failed.jsonl"), "-trace-out", out("failed.json")},
			code: 1, want: "scenario did not complete", files: []string{"failed.jsonl", "failed.json"},
			digests: map[string]string{
				"stdout":       "7979896d1c024ca869cbabee4c52c945678a0a3c041dff65e4609cd15f6c8ef2",
				"failed.jsonl": "d8fb8f4ad92023639d656b7cbf8da4be159be5ba9876f6ed021eed72d7fb39bf",
				"failed.json":  "10fad56a564b0e4489ce1594a120225305abfaf54e31eec5a4097e8df904bc85",
			}},
		{args: []string{"degraded", "-small", "-n", "16", "-size", "32768", "-variants", "1", "-counts", "0,3",
			"-j", "2", "-progress-out", out("degraded-progress.jsonl")},
			want: "hxnm    3", files: []string{"degraded-progress.jsonl"}},
		{args: []string{"scale", "-t", "2", "-msgs", "2000", "-window", "32", "-size", "4096"},
			want: "delivered 2000 messages"},
	}
	for _, c := range cases {
		cmd := strings.Join(c.args, " ")
		code, stdout := t2hx(t, c.args...)
		if code != c.code || !strings.Contains(stdout, c.want) {
			t.Errorf("t2hx %s: exit %d, want %d with %q on stdout:\n%s", cmd, code, c.code, c.want, stdout)
		}
		if strings.Contains(stdout, "table cache:") {
			t.Errorf("t2hx %s: stdout carries the table-cache totals:\n%s", cmd, stdout)
		}
		outputs := map[string][]byte{"stdout": []byte(strings.ReplaceAll(stdout, dir, "$DIR"))}
		for _, name := range c.files {
			b, err := os.ReadFile(out(name))
			if err != nil || len(b) == 0 {
				t.Errorf("t2hx %s: %s not written (%v)", c.args[0], name, err)
				continue
			}
			if err := finished(name, b); err != nil {
				t.Errorf("t2hx %s: %s: %v", cmd, name, err)
			}
			outputs[name] = b
		}
		for name, want := range c.digests {
			sum := sha256.Sum256(outputs[name])
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("t2hx %s: %s digest %s, pinned %s", cmd, name, got, want)
			}
		}
	}
}

// finished checks that a written stream was closed properly: a .json
// trace is one JSON document, and a .jsonl stream ends with the line
// that closes it — a "run" footer, a multi-plane "machine" summary, or a
// runner's final "progress" snapshot.
func finished(name string, b []byte) error {
	if filepath.Ext(name) == ".json" {
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		return json.Unmarshal(b, &doc)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var last struct {
		Kind  string `json:"kind"`
		Final bool   `json:"final"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return err
	}
	switch {
	case last.Kind == "run", last.Kind == "machine", last.Kind == "progress" && last.Final:
		return nil
	}
	return fmt.Errorf("stream ends with a %q line (final %v)", last.Kind, last.Final)
}

// A flag the subcommand does not read is an undefined flag (exit 2), not
// a silent no-op: otherwise faults would run its default trio under
// -planes, sweep all five combos under -combo, and scale would ignore
// -bench.
func TestSubcommandsRejectForeignFlags(t *testing.T) {
	for _, args := range [][]string{
		{"faults", "-small", "-planes", "ft:ftree,hyperx:parx"},
		{"sweep", "-small", "-bench", "imb:alltoall", "-combo", "3"},
		{"scale", "-bench", "imb:alltoall"},
		{"run", "-small", "-bench", "imb:alltoall", "-j", "2"},
		{"-faults", "-small"},
		{"run", "-small", "-bench", "imb:alltoall", "extra"},
		{"run", "-small"},
		{},
	} {
		if code, _ := t2hx(t, args...); code != 2 {
			t.Errorf("t2hx %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}

// The one bench resolver rejects a -size below 1 byte and an explicit
// incast group outside [2, n], and run rejects eBB without samples and
// mpiGraph on fewer than 2 ranks: each would otherwise print a sentinel
// ("0 us/op", a NaN mean) or silently run plain incast. Every subcommand
// takes the same benches, so sweep runs incast:4 as run does.
func TestBenchResolution(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string // on stdout when the run succeeds
	}{
		{[]string{"run", "-small", "-bench", "imb:alltoall", "-n", "16", "-size", "-4"}, 1, ""},
		{[]string{"run", "-small", "-bench", "imb:alltoall", "-n", "16", "-size", "0"}, 1, ""},
		{[]string{"run", "-small", "-bench", "imb", "-n", "16"}, 1, ""},
		{[]string{"run", "-small", "-bench", "incast:0", "-n", "16", "-size", "4096"}, 1, ""},
		{[]string{"run", "-small", "-bench", "incast:-3", "-n", "16", "-size", "4096"}, 1, ""},
		{[]string{"run", "-small", "-bench", "incast:x", "-n", "16", "-size", "4096"}, 1, ""},
		{[]string{"run", "-small", "-bench", "app:NOPE", "-n", "16"}, 1, ""},
		{[]string{"run", "-small", "-bench", "ebb", "-n", "16", "-samples", "0"}, 1, ""},
		{[]string{"run", "-small", "-bench", "mpigraph", "-n", "1"}, 1, ""},
		{[]string{"sweep", "-small", "-bench", "ebb", "-n", "16"}, 1, ""},
		{[]string{"faults", "-small", "-bench", "mpigraph", "-n", "16"}, 1, ""},
		{[]string{"degraded", "-small", "-bench", "imb:alltoall", "-size", "-1"}, 1, ""},
		{[]string{"run", "-small", "-bench", "incast:4", "-n", "16", "-size", "4096", "-trials", "1"}, 0, "[us/op]"},
		{[]string{"sweep", "-small", "-bench", "incast:4", "-n", "16", "-size", "4096", "-trials", "1",
			"-progress", "0"}, 0, "sweep: incast:4 over 5 combos x 1 sizes"},
	}
	for _, c := range cases {
		code, stdout := t2hx(t, c.args...)
		if code != c.code || !strings.Contains(stdout, c.want) {
			t.Errorf("t2hx %s: exit %d, want %d with %q on stdout:\n%s",
				strings.Join(c.args, " "), code, c.code, c.want, stdout)
		}
	}
}

// faults takes a -combo list whose default is the paper's trio. Output
// files are suffixed topology-routing, which combos 2 and 3 share, so
// writing files for both at once is refused rather than interleaved. The
// dual-plane combo's files carry its planes' tags joined by '+'.
func TestFaultsComboList(t *testing.T) {
	base := []string{"faults", "-small", "-n", "16", "-size", "32768", "-failures", "2"}
	code, stdout := t2hx(t, append(base, "-combo", "1,3", "-counters", "1")...)
	if code != 0 || !strings.Contains(stdout, "Fat-Tree / SSSP / clustered") ||
		!strings.Contains(stdout, "HyperX / DFSSSP / random") || strings.Contains(stdout, "PARX") {
		t.Errorf("faults -combo 1,3: exit %d:\n%s", code, stdout)
	}
	dir := t.TempDir()
	code, stdout = t2hx(t, append(base, "-combo", "5,0", "-metrics-out", filepath.Join(dir, "x.jsonl"))...)
	var files []string
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if want := []string{"x.fattree-ftree+hyperx-parx.jsonl", "x.fattree-ftree.jsonl"}; code != 0 || err != nil || !slices.Equal(files, want) {
		t.Errorf("faults -combo 5,0 -metrics-out x.jsonl: exit %d, wrote %v (%v), want %v:\n%s", code, files, err, want, stdout)
	}
	for _, extra := range [][]string{
		{"-combo", "2,3", "-metrics-out", filepath.Join(t.TempDir(), "f.jsonl")},
		{"-combo", "9"},
		{"-combo", "0,x"},
		{"-topo", "hyperx"},
	} {
		if code, _ := t2hx(t, append(base, extra...)...); code != 1 {
			t.Errorf("faults %s: exit %d, want 1", strings.Join(extra, " "), code)
		}
	}
}

// A batch faults refuses — a node count the machines lack, or two combos
// that would write the same files — exits 1 before it creates any file.
func TestFaultsRefusedBatchWritesNothing(t *testing.T) {
	for _, args := range []string{
		"-n 100 -metrics-out $DIR/e.jsonl -trace-out $DIR/e.json",
		"-n 16 -combo 2,3 -metrics-out $DIR/f.jsonl",
	} {
		dir := t.TempDir()
		code, _ := t2hx(t, append([]string{"faults", "-small"}, strings.Fields(strings.ReplaceAll(args, "$DIR", dir))...)...)
		left, err := os.ReadDir(dir)
		if code != 1 || err != nil || len(left) > 0 {
			t.Errorf("t2hx faults -small %s: exit %d (want 1), left %d files (%v)", args, code, len(left), err)
		}
	}
}

package main

import (
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
// into a temporary directory.
func TestSubcommandsRunSmall(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	cases := []struct {
		args  []string
		want  string   // on stdout
		files []string // written, non-empty
	}{
		{[]string{"list"}, "4: HyperX / PARX / clustered", nil},
		{[]string{"run", "-small", "-combo", "2", "-bench", "imb:alltoall", "-n", "16", "-size", "4096",
			"-trials", "2", "-counters", "2", "-metrics-out", out("run.jsonl"), "-trace-out", out("run.json")},
			"top 2 channels by XmitWait", []string{"run.jsonl", "run.json"}},
		{[]string{"run", "-small", "-planes", "ft:ftree,hyperx:parx", "-policy", "roundrobin", "-bench", "mpigraph",
			"-n", "8", "-size", "4096", "-counters", "1", "-metrics-out", out("planes.jsonl")},
			"[hyperx/parx]", []string{"planes.jsonl"}},
		{[]string{"sweep", "-small", "-bench", "incast:4", "-n", "16", "-sizes", "4096,8192", "-trials", "1",
			"-j", "2", "-progress", "0", "-progress-out", out("sweep-progress.jsonl")},
			"HyperX / PARX / clustered               8192 B", []string{"sweep-progress.jsonl"}},
		{[]string{"faults", "-small", "-n", "16", "-size", "32768", "-failures", "2", "-j", "2",
			"-metrics-out", out("f.jsonl"), "-trace-out", out("f.json")},
			"lost 0 of", []string{
				"f.fattree-ftree.jsonl", "f.hyperx-dfsssp.jsonl", "f.hyperx-parx.jsonl",
				"f.fattree-ftree.json", "f.hyperx-dfsssp.json", "f.hyperx-parx.json"}},
		{[]string{"degraded", "-small", "-n", "16", "-size", "32768", "-variants", "1", "-counts", "0,3",
			"-j", "2", "-progress-out", out("degraded-progress.jsonl")},
			"hxnm    3", []string{"degraded-progress.jsonl"}},
		{[]string{"scale", "-t", "2", "-msgs", "2000", "-window", "32", "-size", "4096"},
			"delivered 2000 messages", nil},
	}
	for _, c := range cases {
		code, stdout := t2hx(t, c.args...)
		if code != 0 || !strings.Contains(stdout, c.want) {
			t.Errorf("t2hx %s: exit %d, stdout lacks %q:\n%s", strings.Join(c.args, " "), code, c.want, stdout)
		}
		for _, name := range c.files {
			if fi, err := os.Stat(out(name)); err != nil || fi.Size() == 0 {
				t.Errorf("t2hx %s: %s not written (%v)", c.args[0], name, err)
			}
		}
	}
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
// writing files for both at once is refused rather than interleaved.
func TestFaultsComboList(t *testing.T) {
	base := []string{"faults", "-small", "-n", "16", "-size", "32768", "-failures", "2"}
	code, stdout := t2hx(t, append(base, "-combo", "1,3", "-counters", "1")...)
	if code != 0 || !strings.Contains(stdout, "Fat-Tree / SSSP / clustered") ||
		!strings.Contains(stdout, "HyperX / DFSSSP / random") || strings.Contains(stdout, "PARX") {
		t.Errorf("faults -combo 1,3: exit %d:\n%s", code, stdout)
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

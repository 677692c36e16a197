package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// -sizes entries are base-10 byte counts of at least 1, as in t2hx sweep:
// a bad entry is an error that names it, never a Fig 5a row for -5 B or
// 0 B.
func TestParseSizes(t *testing.T) {
	cases := []struct {
		in   string
		want []int64 // nil with bad set: the entry named by bad is rejected
		bad  string
	}{
		{"", nil, ""}, // the figures' own sizes
		{" ", nil, ""},
		{"64,65536", []int64{64, 65536}, ""},
		{" 8 , 1048576", []int64{8, 1048576}, ""},
		{"-5,0", nil, `"-5"`},
		{"64,0", nil, `"0"`},
		{"4k", nil, `"4k"`},
		{"1e6", nil, `"1e6"`},
		{"64,,128", nil, `""`},
	}
	for _, c := range cases {
		got, err := parseSizes(c.in)
		if c.bad != "" {
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

// runCLI runs one command line in-process and returns its exit status and
// what it printed on stdout.
func runCLI(t *testing.T, args ...string) (int, string) {
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

// Every figure subcommand, and all with the union of their flags, runs
// end to end at -small scale with cheap flags, writing its CSV files into
// a temporary directory. The figures that read telemetry pin their stdout
// by SHA-256.
func TestSubcommandsRunSmall(t *testing.T) {
	dir := t.TempDir()
	digests := map[string]string{
		"counters": "6ed5e1b38961f9af84d32380041c70f30bfadf68d0f91338ba4cab0ecb7b0351",
		"planes":   "72bd9b39fbccac5230ba5d912311f81ef0e89db053bfe3a16f40fc95d83722ba",
	}
	cases := []struct {
		args  []string
		want  string   // on stdout
		files []string // written under -csv, non-empty
	}{
		{[]string{"table1"}, "(b) large messages", nil},
		{[]string{"1", "-small", "-csv", dir}, "PARX recovery", []string{"Fig1.csv"}},
		{[]string{"4", "-small", "-coll", "alltoall", "-sizes", "64", "-trials", "1", "-nodes", "8", "-j", "2", "-csv", dir},
			"--- Fig4/alltoall: HyperX / PARX / clustered", []string{"Fig4_alltoall.csv"}},
		{[]string{"5a", "-small", "-sizes", "1024", "-trials", "1", "-nodes", "8", "-parx-demands"}, "Baidu", nil},
		{[]string{"5b", "-small", "-trials", "1", "-nodes", "8", "-no-degrade"}, "IMB Barrier", nil},
		{[]string{"5c", "-small", "-ebb-samples", "5", "-nodes", "8"}, "bisection", nil},
		{[]string{"6", "-small", "-app", "CoMD", "-trials", "1", "-nodes", "8"}, "(CoMD, weak scaling", nil},
		{[]string{"7", "-small", "-window", "0.5", "-j", "2", "-csv", dir}, "TOTAL", []string{"Fig7.csv"}},
		{[]string{"counters", "-small", "-nodes", "8", "-coll", "alltoall", "-csv", dir}, "under imb:alltoall, 8 nodes",
			[]string{"counters_imb_alltoall.csv"}},
		{[]string{"planes", "-small", "-nodes", "8", "-csv", dir}, "(single)", []string{"planes.csv"}},
		{[]string{"degraded", "-small", "-seed", "3", "-j", "2", "-csv", dir}, "Degraded-topology survival",
			[]string{"degraded.csv"}},
		{[]string{"all", "-small", "-nodes", "8", "-trials", "1", "-sizes", "64", "-coll", "bcast", "-app", "FFT",
			"-ebb-samples", "5", "-window", "0.5", "-j", "2", "-csv", filepath.Join(dir, "all")},
			"Table 1: PARX", []string{"all/Fig1.csv", "all/Fig4_bcast.csv", "all/Fig5a.csv", "all/Fig7.csv", "all/degraded.csv"}},
	}
	for _, c := range cases {
		code, stdout := runCLI(t, c.args...)
		if code != 0 || !strings.Contains(stdout, c.want) {
			t.Errorf("figures %s: exit %d, stdout lacks %q:\n%s", strings.Join(c.args, " "), code, c.want, stdout)
		}
		if want, ok := digests[c.args[0]]; ok {
			if sum := sha256.Sum256([]byte(stdout)); hex.EncodeToString(sum[:]) != want {
				t.Errorf("figures %s: stdout digest %x, pinned %s", strings.Join(c.args, " "), sum, want)
			}
		}
		for _, name := range c.files {
			if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
				t.Errorf("figures %s: %s not written (%v)", c.args[0], name, err)
			}
		}
	}
}

// A flag the figure does not read is an undefined flag (exit 2), not a
// silent no-op: Fig. 7 would otherwise run its full mix under -coll or
// -app, and the degraded sweep would ignore -no-degrade. So is a figure
// or table that does not exist, and the old -fig/-table spelling; -h
// exits 0 and a failed run 1.
func TestSubcommandsRejectForeignFlags(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"7", "-coll", "alltoall"}, 2},
		{[]string{"7", "-app", "MILC"}, 2},
		{[]string{"degraded", "-no-degrade"}, 2},
		{[]string{"1", "-j", "4"}, 2},
		{[]string{"1", "-parx-demands"}, 2},
		{[]string{"counters", "-trials", "2"}, 2},
		{[]string{"table1", "-small"}, 2},
		{[]string{"1", "extra"}, 2},
		{[]string{"nope"}, 2},
		{[]string{"table2"}, 2},
		{[]string{"-fig", "1"}, 2},
		{[]string{"-table", "1"}, 2},
		{nil, 2},
		{[]string{"1", "-h"}, 0},
		{[]string{"table1", "-h"}, 0},
		{[]string{"all", "-h"}, 0},
		{[]string{"6", "-small", "-app", "nope"}, 1},
		{[]string{"4", "-small", "-sizes", "4k"}, 1},
	}
	for _, c := range cases {
		if code, _ := runCLI(t, c.args...); code != c.code {
			t.Errorf("figures %s: exit %d, want %d", strings.Join(c.args, " "), code, c.code)
		}
	}
}

package main

import (
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

package main

import (
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

package main

import (
	"strings"
	"testing"
)

// Flags topocheck cannot honour must be rejected before anything is built,
// naming the offending flag, rather than silently ignored.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		planes string
		small  bool
		degr   int
		flag   string // empty: accepted
	}{
		{"", false, -1, ""},
		{"", false, 0, ""},
		{"", false, 3, ""},
		{"ft:ftree,hyperx:parx", false, -1, ""},
		{"ft:ftree,hx:parx", true, 0, ""},
		{"", true, -1, "-small"},
		{"ft:ftree,hx:parx", true, 1, "-degrade"},
		{"", false, -2, "-degrade"},
	} {
		err := checkFlags(c.planes, c.small, c.degr)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("planes=%q small=%v degrade=%d rejected: %v", c.planes, c.small, c.degr, err)
		case c.flag != "" && (err == nil || !strings.Contains(err.Error(), c.flag)):
			t.Errorf("planes=%q small=%v degrade=%d: error %v, want one naming %s", c.planes, c.small, c.degr, err, c.flag)
		}
	}
}

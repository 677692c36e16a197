package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// The routing gate: each invocation's exit status, stderr and stdout
// digest are pinned. The default and -degrade modes build both 672-node
// planes and validate every engine of the engine table on its plane;
// -degrade 5000 leaves ftree with unreachable pairs (exit 2) while hxmin's
// stranded pairs are only noted. A change that moves a row updates the
// digest and records the old and new rows in CHANGES.md.
func TestRoutingGate(t *testing.T) {
	for _, c := range []struct {
		args   string
		code   int
		stderr string
		stdout string // SHA-256
	}{
		{"-degrade -1 -seed 42", 0, "",
			"4df480e7ac5330b93f89845cd611f14174da36ecd798beb3f2d624b42deb24c0"},
		{"-degrade 5000 -seed 7", 2,
			"topocheck: hyperx: topo: degradation shortfall: 769 of 5000 requested switch links can fail without disconnecting the switch fabric\n" +
				"topocheck: fat-tree: topo: degradation shortfall: 1069 of 5000 requested switch links can fail without disconnecting the switch fabric\n" +
				"topocheck: fat-tree/ftree: 414344 unreachable (src, dst-LID) pairs\n",
			"e33a5977269c84cf7c9f5402beee0d458954f5f0d8238bd2c28c4741ed40c529"},
		{"-planes ft:ftree,hyperx:parx", 0, "",
			"a71dda832dd22e148f07ce381dffaa17f1ac232ebea9e45464653eccfdf69768"},
		{"-planes ft:updown,hx:parx -small", 0, "",
			"3285f4a2de444f0952a32c99337ea1c904e0433abb3009d0d4dff3dcba3ec61d"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c.args), &stdout, &stderr)
		sum := sha256.Sum256(stdout.Bytes())
		if got := hex.EncodeToString(sum[:]); code != c.code || stderr.String() != c.stderr || got != c.stdout {
			t.Errorf("topocheck %s: exit %d (want %d), stdout digest %s (pinned %s), stderr:\n%s\nstdout:\n%s",
				c.args, code, c.code, got, c.stdout, stderr.String(), stdout.String())
		}
	}
}

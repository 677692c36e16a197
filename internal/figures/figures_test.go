package figures

import (
	"bytes"
	"strings"
	"testing"
)

func smallSession(t *testing.T, buf *bytes.Buffer) *Session {
	t.Helper()
	return NewSession(Params{
		Out: buf, Small: true, Trials: 2, Seed: 9, Degrade: false,
		Sizes: []int64{64, 65536}, PARXDemands: true,
	})
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	s := smallSession(t, &buf)
	if err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"(a) small messages", "(b) large messages", "1|3", "0|2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1SmallShowsPARXRecovery(t *testing.T) {
	var buf bytes.Buffer
	s := smallSession(t, &buf)
	avgs, err := s.Fig1Averages()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: Fat-Tree > PARX > minimal HyperX.
	if !(avgs[0] > avgs[1]) {
		t.Errorf("Fat-Tree avg %.2f not above minimal HyperX %.2f", avgs[0], avgs[1])
	}
	if !(avgs[2] > avgs[1]) {
		t.Errorf("PARX avg %.2f did not recover over minimal HyperX %.2f", avgs[2], avgs[1])
	}
	if err := s.Fig1(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PARX recovery") {
		t.Error("Fig. 1 output missing recovery line")
	}
}

func TestFig4GridRenders(t *testing.T) {
	var buf bytes.Buffer
	s := smallSession(t, &buf)
	if err := s.Fig4("bcast"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "HyperX / PARX / clustered") {
		t.Error("Fig. 4 missing PARX grid")
	}
	if !strings.Contains(out, "msgsize\\nodes") {
		t.Error("Fig. 4 missing grid header")
	}
}

func TestFig5aRenders(t *testing.T) {
	var buf bytes.Buffer
	s := smallSession(t, &buf)
	s.P.Sizes = []int64{1024}
	if err := s.Fig5a(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Baidu") {
		t.Error("Fig. 5a missing banner")
	}
}

func TestFig5bShowsPARXBarrierPenalty(t *testing.T) {
	var buf bytes.Buffer
	s := smallSession(t, &buf)
	if err := s.Fig5b(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Barrier") {
		t.Fatal("missing banner")
	}
	// The PARX rows must exist and carry negative gains (bfo penalty).
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "PARX") && strings.Contains(line, "-0.") {
			found = true
		}
	}
	if !found {
		t.Errorf("PARX barrier rows show no slowdown:\n%s", out)
	}
}

func TestFig5cRenders(t *testing.T) {
	var buf bytes.Buffer
	s := smallSession(t, &buf)
	s.P.EBBSamples = 10
	if err := s.Fig5c(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bisection") {
		t.Error("Fig. 5c missing banner")
	}
}

func TestFig6RendersApp(t *testing.T) {
	var buf bytes.Buffer
	s := smallSession(t, &buf)
	if err := s.Fig6("CoMD"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "CoMD") || !strings.Contains(out, "median") {
		t.Errorf("Fig. 6 output malformed:\n%s", out)
	}
	if err := s.Fig6("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestFig7SmallRuns(t *testing.T) {
	var buf bytes.Buffer
	s := smallSession(t, &buf)
	// The small mix completes about a hundred runs per combo, and the
	// combos finish within two runs of each other. The totals are pinned so
	// a refactor cannot move them silently, and the combos run as pool
	// cells with one seed each, so they read the same at any -j.
	want := map[string]int{
		"Fat-Tree / ftree / linear":   107,
		"Fat-Tree / SSSP / clustered": 106,
		"HyperX / DFSSSP / linear":    106,
		"HyperX / DFSSSP / random":    106,
		"HyperX / PARX / clustered":   105,
	}
	for _, workers := range []int{1, 2} {
		s.P.Workers = workers
		totals, err := s.Fig7Totals()
		if err != nil {
			t.Fatal(err)
		}
		if len(totals) != len(want) {
			t.Fatalf("-j %d: totals for %d combos, want %d", workers, len(totals), len(want))
		}
		for name, w := range want {
			if got, ok := totals[name]; !ok || got != w {
				t.Errorf("-j %d: %s completed %d runs, want %d", workers, name, got, w)
			}
		}
	}
	if err := s.Fig7(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TOTAL") {
		t.Error("Fig. 7 missing totals row")
	}
}

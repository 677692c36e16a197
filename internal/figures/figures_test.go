package figures

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smallSession(t *testing.T) *Session {
	t.Helper()
	return NewSession(Params{
		Small: true, Trials: 2, Seed: 9, Degrade: false,
		Sizes: []int64{64, 65536}, PARXDemands: true,
	})
}

// render renders r into a string, with its CSV written to dir.
func render(t *testing.T, r interface {
	Render(w io.Writer, csvDir string) error
}, dir string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Render(&buf, dir); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// readCSV returns the rows of dir/name.csv after its header, which must be
// head.
func readCSV(t *testing.T, dir, name string, head ...string) [][]string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || strings.Join(rows[0], ",") != strings.Join(head, ",") {
		t.Fatalf("%s.csv header %v, want %v", name, rows[:min(len(rows), 1)], head)
	}
	return rows[1:]
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"(a) small messages", "(b) large messages", "1|3", "0|2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

// Fig. 1's ordering comes from the one measurement that is also rendered,
// and its CSV holds every ordered rank pair of each combo.
func TestFig1SmallShowsPARXRecovery(t *testing.T) {
	g, err := smallSession(t).Fig1()
	if err != nil {
		t.Fatal(err)
	}
	ft, hx, parx := g.Results[0].AvgGiB, g.Results[1].AvgGiB, g.Results[2].AvgGiB
	// The paper's ordering: Fat-Tree > PARX > minimal HyperX.
	if !(ft > hx) {
		t.Errorf("Fat-Tree avg %.2f not above minimal HyperX %.2f", ft, hx)
	}
	if !(parx > hx) {
		t.Errorf("PARX avg %.2f did not recover over minimal HyperX %.2f", parx, hx)
	}
	dir := t.TempDir()
	if !strings.Contains(render(t, g, dir), "PARX recovery") {
		t.Error("Fig. 1 output missing recovery line")
	}
	if rows := readCSV(t, dir, "Fig1", "combo", "src", "dst", "gib_per_s"); len(rows) != 3*8*7 {
		t.Errorf("Fig1.csv has %d rows, want %d", len(rows), 3*8*7)
	}
}

func TestFig4GridRenders(t *testing.T) {
	g, err := smallSession(t).Fig4("bcast")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(g.Combos) * len(g.Sizes) * len(g.Nodes); len(g.Values) != want {
		t.Fatalf("grid holds %d values, want %d", len(g.Values), want)
	}
	for si := range g.Sizes {
		for ni := range g.Nodes {
			if gain := g.Gain(0, si, ni); gain != 0 {
				t.Errorf("baseline gain over itself %v, want 0", gain)
			}
		}
	}
	out := render(t, g, "")
	if !strings.Contains(out, "HyperX / PARX / clustered") {
		t.Error("Fig. 4 missing PARX grid")
	}
	if !strings.Contains(out, "msgsize\\nodes") {
		t.Error("Fig. 4 missing grid header")
	}
}

func TestFig5aRenders(t *testing.T) {
	s := smallSession(t)
	s.P.Sizes = []int64{1024}
	g, err := s.Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(render(t, g, ""), "Baidu") {
		t.Error("Fig. 5a missing banner")
	}
}

// Every PARX Barrier row is slower than the Fat-Tree baseline: the bfo
// PML penalty the paper measured at 2.8-6.9x. At these settings the gains
// read -0.69 to -0.73.
func TestFig5bShowsPARXBarrierPenalty(t *testing.T) {
	wh, err := smallSession(t).Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	parx := 0
	for _, r := range wh.Rows {
		if r.Combo.Routing != "parx" {
			continue
		}
		parx++
		if !(r.Gain < 0) {
			t.Errorf("PARX barrier at %d nodes: gain %+.2f, want a slowdown", r.Nodes, r.Gain)
		}
	}
	if parx == 0 {
		t.Fatalf("no PARX rows in %d whisker rows", len(wh.Rows))
	}
	if !strings.Contains(render(t, wh, ""), "Barrier") {
		t.Error("missing banner")
	}
}

func TestFig5cRenders(t *testing.T) {
	s := smallSession(t)
	s.P.EBBSamples = 10
	wh, err := s.Fig5c()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(render(t, wh, ""), "bisection") {
		t.Error("Fig. 5c missing banner")
	}
}

func TestFig6RendersApp(t *testing.T) {
	s := smallSession(t)
	wh, err := s.Fig6("CoMD")
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, wh, "")
	if !strings.Contains(out, "CoMD") || !strings.Contains(out, "median") {
		t.Errorf("Fig. 6 output malformed:\n%s", out)
	}
	if _, err := s.Fig6("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestFig7SmallRuns(t *testing.T) {
	s := smallSession(t)
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
		c, err := s.Fig7()
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Results) != len(want) {
			t.Fatalf("-j %d: totals for %d combos, want %d", workers, len(c.Results), len(want))
		}
		for i, cb := range c.Combos {
			if got, w := c.Results[i].Total, want[cb.Name]; got != w {
				t.Errorf("-j %d: %s completed %d runs, want %d", workers, cb.Name, got, w)
			}
		}
		if workers > 1 {
			continue
		}
		dir := t.TempDir()
		if !strings.Contains(render(t, c, dir), "TOTAL") {
			t.Error("Fig. 7 missing totals row")
		}
		rows := readCSV(t, dir, "Fig7", "combo", "app", "runs")
		if len(rows) != len(c.Combos)*len(c.Order) || rows[0][0] != c.Combos[0].Name || rows[0][1] != c.Order[0] {
			t.Errorf("Fig7.csv rows %v, want one per combo and app in table order", rows)
		}
	}
}

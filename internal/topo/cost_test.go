package topo

import "testing"

func TestCostClassification(t *testing.T) {
	g := New("tiny")
	s1 := g.AddNode(Switch, "s1").ID
	s2 := g.AddNode(Switch, "s2").ID
	s3 := g.AddNode(Switch, "s3").ID
	t1 := g.AddNode(Terminal, "t1").ID
	g.Connect(s1, t1, 1e9, 0) // terminal: always copper
	g.Connect(s1, s2, 1e9, 0) // adjacent racks: copper
	g.Connect(s1, s3, 1e9, 0) // distant: AOC
	racks := map[NodeID]int{s1: 0, s2: 1, s3: 5}
	m := DefaultCostModel()
	sum := Cost(g, m, func(sw NodeID) int { return racks[sw] })
	if sum.Copper != 2 || sum.AOCs != 1 {
		t.Errorf("copper/AOC = %d/%d, want 2/1", sum.Copper, sum.AOCs)
	}
	want := 3*m.SwitchCost + 2*m.CopperCost + 1*m.AOCCost
	if sum.Total != want {
		t.Errorf("total = %v, want %v", sum.Total, want)
	}
}

func TestCostNilRackIsWorstCase(t *testing.T) {
	g := New("tiny")
	s1 := g.AddNode(Switch, "s1").ID
	s2 := g.AddNode(Switch, "s2").ID
	g.Connect(s1, s2, 1e9, 0)
	sum := Cost(g, DefaultCostModel(), nil)
	if sum.AOCs != 0 {
		// Adjacent IDs -> rack distance 1 <= reach: copper.
		t.Errorf("adjacent-ID switches should still be copper, AOCs=%d", sum.AOCs)
	}
}

// The paper's cost argument (Sec. 1/2.2): the HyperX plane needs far
// fewer AOCs than the Fat-Tree plane for the same 672 nodes, and fewer
// switches. The default model prices the HyperX at about 0.54 of the
// Fat-Tree (7,056 vs 13,128), the ratio topocheck prints.
func TestPaperCostStructureFavorsHyperX(t *testing.T) {
	hx := NewPaperHyperX(false, 0)
	ft := NewPaperFatTree(false, 0)
	m := DefaultCostModel()
	hxCost := Cost(hx.Graph, m, PaperHyperXRack(hx))
	ftCost := Cost(ft.Graph, m, PaperFatTreeRack(ft))
	t.Logf("HyperX:  %+v", hxCost)
	t.Logf("FatTree: %+v", ftCost)
	if hxCost.Switches >= ftCost.Switches {
		t.Errorf("HyperX uses %d switches vs Fat-Tree %d", hxCost.Switches, ftCost.Switches)
	}
	if hxCost.AOCs >= ftCost.AOCs {
		t.Errorf("HyperX needs %d AOCs vs Fat-Tree %d — cost argument inverted",
			hxCost.AOCs, ftCost.AOCs)
	}
	if hxCost.Total >= ftCost.Total {
		t.Errorf("HyperX total %v not below Fat-Tree %v", hxCost.Total, ftCost.Total)
	}
	if r := hxCost.Total / ftCost.Total; r < 0.52 || r > 0.56 {
		t.Errorf("HyperX/Fat-Tree cost ratio %.3f (%v / %v) outside [0.52, 0.56]", r, hxCost.Total, ftCost.Total)
	}
	// The paper wired 684 AOCs for the HyperX (Sec. 2.3: 15 of 684
	// absent); our packaging model should land in that neighborhood.
	if hxCost.AOCs < 400 || hxCost.AOCs > 900 {
		t.Errorf("HyperX AOC count %d far from the paper's 684", hxCost.AOCs)
	}
}

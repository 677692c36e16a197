package topo

// Cost-structure analysis behind the paper's motivation (Sec. 1/2.2):
// Folded-Clos networks force most links onto active optical cables (AOCs)
// with a "prohibitive cost-structure at scale", while a HyperX packs each
// dimension into a physical packaging domain so a large share of links
// stay on cheap passive copper (the brown intra-rack cables of Fig. 2c),
// and half-bisection designs cut the cable count further.

// CostModel prices network components; values are relative units
// (defaults roughly follow QDR-era street prices: an AOC cost several
// times a DAC, and an edge switch about thirty DACs).
type CostModel struct {
	SwitchCost float64
	CopperCost float64
	AOCCost    float64
	// CopperReach is the maximum rack distance a passive cable can span
	// (in "rack units" of the layout); longer links need AOCs.
	CopperReach int
}

// DefaultCostModel returns QDR-era relative prices.
func DefaultCostModel() CostModel {
	return CostModel{SwitchCost: 30, CopperCost: 1, AOCCost: 6, CopperReach: 1}
}

// CostSummary is the bill of materials of one network plane.
type CostSummary struct {
	Switches int
	Copper   int
	AOCs     int
	Total    float64
}

// rackOf assigns switches to racks by a layout function; nil means every
// switch sits in its own rack (worst case for copper).
type rackOf func(sw NodeID) int

// Cost computes the bill of materials for a plane given a rack layout.
// Terminal links are always copper (node to in-rack edge switch).
func Cost(g *Graph, m CostModel, rack rackOf) CostSummary {
	if rack == nil {
		rack = func(sw NodeID) int { return int(sw) }
	}
	s := CostSummary{Switches: g.NumSwitches()}
	for _, l := range g.Links {
		a, b := g.Nodes[l.A], g.Nodes[l.B]
		if a.Kind == Terminal || b.Kind == Terminal {
			s.Copper++
			continue
		}
		d := rack(l.A) - rack(l.B)
		if d < 0 {
			d = -d
		}
		if d <= m.CopperReach {
			s.Copper++
		} else {
			s.AOCs++
		}
	}
	s.Total = float64(s.Switches)*m.SwitchCost +
		float64(s.Copper)*m.CopperCost + float64(s.AOCs)*m.AOCCost
	return s
}

// PaperHyperXRack maps the 12x8 HyperX onto the paper's packaging: four
// switches per rack (Fig. 2c), racks laid out along dimension 0 — so
// dimension-1 links inside a rack column stay mostly short while
// dimension-0 links cross the row of racks.
func PaperHyperXRack(hx *HyperX) func(sw NodeID) int {
	return func(sw NodeID) int {
		c := hx.Nodes[sw].Coord
		// 24 racks: rack = x*2 + y/4 (two racks per column of 8).
		return c[0]*2 + c[1]/4
	}
}

// PaperFatTreeRack places the 48 edge switches two per rack with their
// nodes and pools every director-internal switch in a central row —
// making every edge-to-director link an AOC, as on the real system.
func PaperFatTreeRack(ft *FatTree) func(sw NodeID) int {
	racks := make(map[NodeID]int)
	edge := 0
	for _, s := range ft.Switches() {
		if ft.Level(s) == 1 {
			racks[s] = edge / 2
			edge++
		} else {
			racks[s] = 1000 // director row, far from all compute racks
		}
	}
	return func(sw NodeID) int { return racks[sw] }
}

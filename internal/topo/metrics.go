package topo

import "fmt"

// Structural metrics used to validate the built topologies against the
// numbers the paper reports in Sec. 2.2/2.3.

// hopBFS is the package's one switch-level breadth-first search: it
// walks live switch-to-switch links from switch src, and stops as soon as
// it reaches switch dst (-1 walks the whole fabric). dist needs one entry
// per node; on return it holds each reached switch's hop count from src
// and -1 everywhere else (unreached switches, terminals). It returns the
// number of switches reached, src included, and the largest hop count
// among them.
func hopBFS(g *Graph, src, dst NodeID, dist []int) (reached, far int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := append(make([]NodeID, 0, g.NumSwitches()), src)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, l := range g.Nodes[cur].Ports {
			if l == nil || l.Down {
				continue
			}
			o := l.Other(cur)
			if g.Nodes[o].Kind != Switch || dist[o] >= 0 {
				continue
			}
			dist[o] = dist[cur] + 1
			queue = append(queue, o)
			if o == dst {
				return len(queue), dist[o]
			}
		}
	}
	return len(queue), dist[queue[len(queue)-1]]
}

// HopDistances returns the minimal switch-hop count over live links from
// switch src to every node, indexed by NodeID: -1 for unreachable switches
// and for terminals.
func HopDistances(g *Graph, src NodeID) []int {
	dist := make([]int, len(g.Nodes))
	hopBFS(g, src, -1, dist)
	return dist
}

// diameterMemo is a Diameter result and the DownHash it was found at.
type diameterMemo struct {
	down uint64
	diam int
}

// Diameter returns the maximal minimal switch-hop distance between any two
// switches, or -1 if the switch fabric is disconnected. The all-pairs
// search runs once per link state: the result is kept on the graph under
// its DownHash, stored atomically, so runs sharing a plane pay for it
// once and a graph whose links go down or come back recomputes.
func Diameter(g *Graph) int {
	down := g.DownHash()
	if m := g.diameter.Load(); m != nil && m.down == down {
		return m.diam
	}
	dist := make([]int, len(g.Nodes))
	diam := 0
	for _, s := range g.Switches() {
		reached, far := hopBFS(g, s, -1, dist)
		if reached < g.NumSwitches() {
			diam = -1
			break
		}
		diam = max(diam, far)
	}
	g.diameter.Store(&diameterMemo{down: down, diam: diam})
	return diam
}

// BisectionRatio computes the bandwidth of a bisection cut relative to full
// bisection (N/2 terminal-link bandwidths for N terminals). The cut is
// specified by a predicate assigning each switch to side A (true) or B
// (false); only live switch-to-switch links crossing the cut count.
func BisectionRatio(g *Graph, sideA func(sw NodeID) bool) float64 {
	var cross float64
	for _, l := range g.LiveSwitchLinks() {
		if sideA(l.A) != sideA(l.B) {
			cross += l.Bandwidth
		}
	}
	n := g.NumTerminals()
	if n == 0 {
		return 0
	}
	// Reference: half the terminals injecting at terminal-link bandwidth.
	var full float64
	terms := g.Terminals()
	for _, t := range terms[:n/2] {
		for _, l := range g.Nodes[t].Ports {
			if l != nil && !l.Down {
				full += l.Bandwidth
			}
		}
	}
	if full == 0 {
		return 0
	}
	return cross / full
}

// HyperXWorstBisection returns the worst coordinate-aligned bisection ratio
// of a HyperX (cutting each even dimension in half). For the paper's 12x8
// this is 4/7 = 57.1%.
func HyperXWorstBisection(hx *HyperX) float64 {
	worst := -1.0
	for d, s := range hx.Cfg.S {
		if s%2 != 0 {
			continue
		}
		half := s / 2
		r := BisectionRatio(hx.Graph, func(sw NodeID) bool {
			return hx.Nodes[sw].Coord[d] < half
		})
		if worst < 0 || r < worst {
			worst = r
		}
	}
	return worst
}

// LinkCensus is one row of a structural link count: a dimension of a
// HyperX lattice or a level boundary of a fat-tree.
type LinkCensus struct {
	Name       string
	Live, Down int
}

// Degraded reports the fraction of the row's links that are down.
func (c LinkCensus) Degraded() float64 {
	if c.Live+c.Down == 0 {
		return 0
	}
	return float64(c.Down) / float64(c.Live+c.Down)
}

// HyperXDimLinks counts the inter-switch links of each lattice dimension,
// split live/down — the paper's Sec. 2.3 accounting of where the missing
// AOCs land (all of TSUBAME2's absent cables sit in specific dimensions).
func HyperXDimLinks(hx *HyperX) []LinkCensus {
	out := make([]LinkCensus, len(hx.Cfg.S))
	for d := range out {
		out[d].Name = fmt.Sprintf("dim %d (S=%d)", d, hx.Cfg.S[d])
	}
	for _, l := range hx.Graph.Links {
		if hx.Graph.Nodes[l.A].Kind != Switch || hx.Graph.Nodes[l.B].Kind != Switch {
			continue
		}
		ca, cb := hx.Coord(l.A), hx.Coord(l.B)
		for d := range ca {
			if ca[d] != cb[d] {
				if l.Down {
					out[d].Down++
				} else {
					out[d].Live++
				}
				break
			}
		}
	}
	return out
}

// FatTreeLevelLinks counts the links of each level boundary (terminals-L1,
// L1-L2, ...), split live/down — where a fat-tree's broken cables sit
// decides whether degradation costs leaf or spine bandwidth.
func FatTreeLevelLinks(ft *FatTree) []LinkCensus {
	out := make([]LinkCensus, ft.Height)
	for i := range out {
		if i == 0 {
			out[i].Name = "term-L1"
		} else {
			out[i].Name = fmt.Sprintf("L%d-L%d", i, i+1)
		}
	}
	for _, l := range ft.Graph.Links {
		lo, hi := ft.Level(l.A), ft.Level(l.B)
		if hi < lo {
			lo = hi
		}
		if lo < 0 || lo >= len(out) {
			continue
		}
		if l.Down {
			out[lo].Down++
		} else {
			out[lo].Live++
		}
	}
	return out
}

// CountLinks returns (terminalLinks, switchLinks, downLinks).
func CountLinks(g *Graph) (term, sw, down int) {
	for _, l := range g.Links {
		if l.Down {
			down++
			continue
		}
		if g.Nodes[l.A].Kind == Terminal || g.Nodes[l.B].Kind == Terminal {
			term++
		} else {
			sw++
		}
	}
	return
}

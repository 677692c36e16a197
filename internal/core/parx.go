package core

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

// LMC is PARX's LID mask control: 2^2 = 4 virtual LIDs per port, one per
// rule R1-R4.
const LMC uint8 = 2

// QuadrantBlock is the LID block size per quadrant (Sec. 3.2.1, footnote 5:
// Q0 := 0...999, Q1 := 1000...1999, ...), so the PML can identify a port's
// quadrant as floor(LID/1000).
const QuadrantBlock = 1000

// Demands is the normalized communication-demand matrix ingested by PARX:
// Demands[src][dst] in [0,255] where 0 means no traffic and 255 the highest
// recorded demand between two ranks/nodes (Sec. 3.2.3). Indices are
// terminal indices in graph order. A nil matrix routes
// workload-obliviously (every path weighs +1, like DFSSSP).
type Demands [][]uint8

// Config tunes the PARX engine.
type Config struct {
	// MaxVL is the virtual-lane budget; the paper's QDR hardware has 8 and
	// PARX needed 5-8 depending on the ingested profile (footnote 8).
	MaxVL int
	// Demands is the optional communication profile.
	Demands Demands
}

// PARX computes pattern-aware routing tables for a 2-D HyperX with even
// dimensions, implementing Algorithm 1:
//
//  1. assign quadrant-coded base LIDs (LMC=2),
//  2. for every destination and every LID offset i, compute balanced
//     shortest paths on the graph with rule R_i's half removed,
//  3. weight the balancing by the normalized communication demands,
//     processing destinations with recorded demands first,
//  4. assign all paths (including all virtual LIDs) to virtual lanes with
//     acyclic channel-dependency graphs.
//
// The returned tables are fault-tolerant in the limited sense of footnote
// 7: when a rule disconnects a destination (possible on degraded fabrics),
// that LID falls back to unmasked shortest paths.
func PARX(hx *topo.HyperX, cfg Config) (*route.Tables, error) {
	if hx.Dims() != 2 {
		return nil, fmt.Errorf("core: PARX prototype supports exactly 2-D HyperX, got %d-D", hx.Dims())
	}
	shape := hx.Cfg.S
	if shape[0]%2 != 0 || shape[1]%2 != 0 {
		return nil, fmt.Errorf("core: PARX needs even dimensions, got %dx%d", shape[0], shape[1])
	}
	if cfg.MaxVL <= 0 {
		cfg.MaxVL = 8
	}
	if cfg.Demands != nil && len(cfg.Demands) != hx.NumTerminals() {
		return nil, fmt.Errorf("core: demand matrix is %dx, fabric has %d terminals",
			len(cfg.Demands), hx.NumTerminals())
	}

	policy, err := quadrantLIDPolicy(hx)
	if err != nil {
		return nil, err
	}
	t, err := route.NewTables(hx.Graph, "parx", LMC, policy)
	if err != nil {
		return nil, err
	}

	terms := hx.Terminals()
	// Destination order: demand destinations first (Algorithm 1 optimizes
	// the listed nodes before filling in the rest).
	order := make([]int, 0, len(terms))
	var hasDemand []bool
	if cfg.Demands != nil {
		hasDemand = make([]bool, len(terms))
		for _, row := range cfg.Demands {
			for di, w := range row {
				if w > 0 {
					hasDemand[di] = true
				}
			}
		}
		for i := range terms {
			if hasDemand[i] {
				order = append(order, i)
			}
		}
		for i := range terms {
			if !hasDemand[i] {
				order = append(order, i)
			}
		}
	} else {
		for i := range terms {
			order = append(order, i)
		}
	}

	opts := route.SSSPOptions{
		DstOrder: order,
		MaskFor: func(_ topo.NodeID, lidOffset uint8) route.LinkMask {
			half := RuleFor(lidOffset)
			return func(l *topo.Link) bool {
				a, b := hx.Nodes[l.A], hx.Nodes[l.B]
				if a.Kind != topo.Switch || b.Kind != topo.Switch {
					return true
				}
				// Remove links with BOTH endpoints inside the half;
				// half-crossing links survive so every switch stays
				// attached to the rest of the fabric.
				return !(InHalf(a.Coord, shape, half) && InHalf(b.Coord, shape, half))
			}
		},
	}
	if cfg.Demands != nil {
		opts.PathWeight = func(src, dst topo.NodeID) float64 {
			di := hx.TerminalIndex(dst)
			w := cfg.Demands[hx.TerminalIndex(src)][di]
			if w > 0 {
				return float64(w)
			}
			if hasDemand[di] {
				// Algorithm 1's first loop updates weights ONLY for the
				// demand pairs of a demand destination — other sources
				// toward it contribute nothing.
				return 0
			}
			// Second loop ("all other nodes"): +1 per path.
			return 1
		}
	}
	if err := route.SSSPCore(t, opts); err != nil {
		return nil, err
	}
	if err := route.AssignVLs(t, cfg.MaxVL); err != nil {
		return nil, err
	}
	t.Freeze()
	return t, nil
}

// quadrantLIDPolicy assigns base LIDs in quadrant blocks: the k-th terminal
// of quadrant q gets base LID q*1000 + 4*(k+1).
func quadrantLIDPolicy(hx *topo.HyperX) (route.LIDPolicy, error) {
	span := 1 << LMC
	counts := [4]int{}
	bases := make(map[topo.NodeID]route.LID, hx.NumTerminals())
	for _, tm := range hx.Terminals() {
		q := QuadrantOf(hx.Coord(tm), hx.Cfg.S)
		base := route.LID(int(q)*QuadrantBlock + span*(counts[q]+1))
		if int(base) >= (int(q)+1)*QuadrantBlock {
			return nil, fmt.Errorf("core: quadrant %v overflows its %d-LID block", q, QuadrantBlock)
		}
		bases[tm] = base
		counts[q]++
	}
	return func(_ int, term topo.NodeID) route.LID {
		return bases[term]
	}, nil
}

// QuadrantOfTerminal returns the quadrant of a terminal on the HyperX.
func QuadrantOfTerminal(hx *topo.HyperX, tm topo.NodeID) Quadrant {
	return QuadrantOf(hx.Coord(tm), hx.Cfg.S)
}

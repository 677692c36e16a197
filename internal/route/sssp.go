package route

import (
	"github.com/hpcsim/t2hx/internal/topo"
)

// SSSPOptions customize ssspCore. PARX (internal/core) drives all three
// hooks; plain (DF)SSSP uses none.
type SSSPOptions struct {
	// MaskFor returns the link mask to apply while computing paths toward
	// one LID of dst (PARX rules R1-R4). nil means no mask.
	MaskFor func(dst topo.NodeID, lidOffset uint8) LinkMask
	// PathWeight returns the edge-update delta for the path src->dst
	// (PARX: the normalized communication demand w in [0,255], or 1).
	// nil means +1 for every path, the plain SSSP balancing rule.
	PathWeight func(src, dst topo.NodeID) float64
	// DstOrder lists terminal indices in processing order; destinations
	// with recorded demands are routed first by PARX so their paths see an
	// unloaded fabric. nil means graph order.
	DstOrder []int
}

// SSSP implements OpenSM's SSSP routing engine (Hoefler, Schneider,
// Lumsdaine, HOTI'09): for every destination it computes a shortest-path
// tree with the modified Dijkstra, then increases the weight of every
// channel used by the paths of all sources toward that destination by +1,
// so later destinations are balanced away from already-loaded channels.
// SSSP is oblivious to deadlocks (no virtual lanes) — fine on trees, unsafe
// on a HyperX, which is exactly why the paper had to use DFSSSP there.
func SSSP(g *topo.Graph, lmc uint8) (*Tables, error) {
	t, err := newTables(g, "sssp", lmc, nil)
	if err != nil {
		return nil, err
	}
	if err := SSSPCore(t, SSSPOptions{}); err != nil {
		return nil, err
	}
	t.Freeze()
	return t, nil
}

// DFSSSP implements deadlock-free SSSP (Domke, Hoefler, Nagel, IPDPS'11):
// SSSP path calculation followed by assigning every (src,dst) path to a
// virtual lane such that each lane's channel dependency graph is acyclic.
// The paper's HyperX needs 3 VLs under DFSSSP (Sec. 4.4.3); maxVL bounds
// the hardware limit (8 on their QDR gear).
func DFSSSP(g *topo.Graph, lmc uint8, maxVL int) (*Tables, error) {
	t, err := newTables(g, "dfsssp", lmc, nil)
	if err != nil {
		return nil, err
	}
	if err := SSSPCore(t, SSSPOptions{}); err != nil {
		return nil, err
	}
	if err := AssignVLs(t, maxVL); err != nil {
		return nil, err
	}
	t.Freeze()
	return t, nil
}

// NewTables exposes table allocation for external engines (PARX). Like
// every engine, it returns an error wrapping ErrLIDSpace when g has more
// terminals than LMC lmc can address.
func NewTables(g *topo.Graph, engine string, lmc uint8, policy LIDPolicy) (*Tables, error) {
	return newTables(g, engine, lmc, policy)
}

// SSSPCore fills t's LFTs with (optionally masked, optionally
// demand-weighted) balanced shortest paths. With lmc > 0 every additional
// LID of a terminal is routed as an independent destination (OpenSM
// behaviour: "as if each virtual LID would be a physical endpoint").
func SSSPCore(t *Tables, opts SSSPOptions) error {
	g := t.G
	ll := newLiveLinks(g)
	cw := NewChannelWeights(g)
	span := 1 << t.LMC
	terms := g.Terminals()
	order := opts.DstOrder
	if order == nil {
		order = make([]int, len(terms))
		for i := range order {
			order[i] = i
		}
	}
	for _, di := range order {
		dst := terms[di]
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			// Detached terminal (e.g. its switch died): leave its LIDs
			// unprogrammed so Validate reports them unreachable instead of
			// failing the whole sweep.
			continue
		}
		for off := 0; off < span; off++ {
			lid := t.BaseLID[di] + LID(off)
			var mask LinkMask
			if opts.MaskFor != nil {
				mask = opts.MaskFor(dst, uint8(off))
			}
			sp := shortestPathsTo(g, ll, dstSw, cw, mask)
			if mask != nil && sp.Reached() < g.NumSwitches() {
				// The mask disconnected part of the fabric (PARX
				// footnote 7); fall back to the unmasked graph for this
				// LID to stay fault-tolerant.
				sp.Release()
				sp = shortestPathsTo(g, ll, dstSw, cw, nil)
			}
			installLFT(t, lid, dstSw, dst, sp)
			// Balancing: weight update per source path.
			for _, src := range terms {
				if src == dst {
					continue
				}
				srcSw := g.SwitchOf(src)
				if srcSw < 0 {
					continue
				}
				w := 1.0
				if opts.PathWeight != nil {
					w = opts.PathWeight(src, dst)
				}
				if w == 0 {
					continue
				}
				for _, c := range tracePath(sp, g, srcSw) {
					cw.Add(c, w)
				}
			}
			sp.Release()
		}
	}
	return nil
}

// installLFT writes the shortest-path-tree next hops into the LFT for lid,
// including the final switch->terminal delivery hop.
func installLFT(t *Tables, lid LID, dstSw, dst topo.NodeID, sp *SPTree) {
	g := t.G
	for i, sw := range g.Switches() {
		e := sp.entries[i]
		if e.hops <= 0 {
			continue // unreached, or the destination switch itself
		}
		t.SetNextHop(sw, lid, e.next)
	}
	for _, l := range g.Nodes[dst].Ports {
		if l != nil && !l.Down && l.Other(dst) == dstSw {
			t.SetNextHop(dstSw, lid, l.Channel(dstSw))
			return
		}
	}
}

// AssignVLs distributes every (src, dst-LID) path over virtual lanes with
// acyclic per-lane CDGs (the DFSSSP deadlock-avoidance pass, reused by LASH
// and PARX), walking each (source switch, destination LID) key once; see
// assignLanes.
func AssignVLs(t *Tables, maxVL int) error {
	return assignLanes(t, maxVL, false)
}

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
	// nil means +1 for every path, the plain SSSP balancing rule. Weights
	// must be integer-valued: SSSPCore sums them per switch before adding
	// them to the channels, which gives the per-path sums only while every
	// sum is exact.
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
//
// Balancing adds each source's path weight to every channel of its path.
// The paths toward one LID form the shortest-path tree, so the weights are
// summed per source switch and folded up the tree (SPTree.fold). Path
// weights are integers, so every sum is exact and each channel gains what
// adding the weights path by path would give it.
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
	// swOf[i] is terminal i's switch index, -1 when it is detached;
	// attached[si] counts the terminals of switch si, the path weights
	// leaving it under unit weights.
	swOf := make([]int32, len(terms))
	attached := make([]float64, g.NumSwitches())
	for i, tm := range terms {
		swOf[i] = -1
		if sw := g.SwitchOf(tm); sw >= 0 {
			si := g.SwitchIndex(sw)
			swOf[i] = int32(si)
			attached[si]++
		}
	}
	sum := make([]float64, g.NumSwitches())
	for _, di := range order {
		dst := terms[di]
		if swOf[di] < 0 {
			// Detached terminal (e.g. its switch died): leave its LIDs
			// unprogrammed so Validate reports them unreachable instead of
			// failing the whole sweep.
			continue
		}
		dstSw := g.Switches()[swOf[di]]
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
			// Balancing. The destination's own switch starts no path, so
			// its sum, which counts the destination, is never folded.
			if opts.PathWeight == nil {
				copy(sum, attached)
			} else {
				clear(sum)
				for i, src := range terms {
					if i != di && swOf[i] >= 0 {
						sum[swOf[i]] += opts.PathWeight(src, dst)
					}
				}
			}
			sp.fold(sum, cw)
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

package route

import (
	"github.com/hpcsim/t2hx/internal/topo"
)

// LASH implements LAyered SHortest-path routing (Skeie, Lysne, Theiss,
// IPDPS'02), the third topology-agnostic deadlock-free option the paper
// cites next to DFSSSP and Nue: plain minimal paths (no load balancing),
// made deadlock-free by partitioning the (src,dst) pairs into virtual
// lanes with acyclic channel dependency graphs. Compared to DFSSSP it
// skips the edge-weight balancing, so it tends to pile paths onto few
// channels — useful as a baseline for the balancing ablation.
func LASH(g *topo.Graph, lmc uint8, maxVL int) (*Tables, error) {
	t, err := newTables(g, "lash", lmc, nil)
	if err != nil {
		return nil, err
	}
	// Static unit weights: pure min-hop with deterministic tie-breaks. The
	// weights never change, so a shortest-path tree depends on the
	// destination switch alone, and consecutive terminals on one switch
	// share it.
	ll := newLiveLinks(g)
	cw := NewChannelWeights(g)
	span := 1 << t.LMC
	var sp *SPTree
	spSw := topo.NodeID(-1)
	for di, dst := range g.Terminals() {
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			continue
		}
		if dstSw != spSw {
			if sp != nil {
				sp.Release()
			}
			sp, spSw = shortestPathsTo(g, ll, dstSw, cw, nil), dstSw
		}
		for off := 0; off < span; off++ {
			installLFT(t, t.BaseLID[di]+LID(off), dstSw, dst, sp)
		}
	}
	if sp != nil {
		sp.Release()
	}
	if err := AssignVLs(t, maxVL); err != nil {
		return nil, err
	}
	t.Freeze()
	return t, nil
}

package route

import (
	"math"

	"github.com/hpcsim/t2hx/internal/topo"
)

// FTree implements OpenSM's ftree routing for XGFTs, which on healthy
// fabrics behaves like Zahavi's D-Mod-K: packets ascend toward the lowest
// common ancestor level, choosing among redundant parents by a
// deterministic digit of the destination index (contention-free for shift
// permutations), then descend along the unique down path. Missing links are
// bypassed by the cheapest valley-free (up*down*) detour, so the result
// stays loop- and deadlock-free on degraded fabrics — though, as the paper
// observes, less balanced than SSSP there. The tables carry the
// valley-free rank as their lane certificate (valleyFreeRank).
func FTree(ft *topo.FatTree, lmc uint8) (*Tables, error) {
	t, err := newTables(ft.Graph, "ftree", lmc, nil)
	if err != nil {
		return nil, err
	}
	g := ft.Graph
	span := 1 << lmc
	terms := g.Terminals()

	// Mixed-radix digit strides over the parent counts W: at a level-lv
	// switch the D-Mod-K parent digit is (dstIdx / stride[lv]) % W[lv].
	stride := make([]int, ft.Height+1)
	stride[1] = 1
	for lv := 1; lv < ft.Height; lv++ {
		stride[lv+1] = stride[lv] * ft.Cfg.W[lv]
	}

	// Switches grouped by level once, and flat per-destination scratch
	// indexed by the graph's dense switch index, reset between
	// destinations.
	byLevel := make([][]topo.NodeID, ft.Height+1)
	for _, s := range ft.Switches() {
		byLevel[ft.Level(s)] = append(byLevel[ft.Level(s)], s)
	}
	nsw := g.NumSwitches()
	desc := make([]bool, nsw)
	descLink := make([]*topo.Link, nsw)
	cost := make([]float64, nsw)
	next := make([]topo.ChannelID, nsw)

	for di, dst := range terms {
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			// Detached terminal: leave its LIDs unprogrammed (reported as
			// unreachable by Validate) rather than failing the sweep.
			continue
		}
		dstIdx := ft.TermIndex(dst)
		for i := 0; i < nsw; i++ {
			desc[i], descLink[i] = false, nil
			cost[i], next[i] = -1, NoChannel
		}

		// Phase 1: descent feasibility. desc[s] is true when the unique
		// ancestor down-chain from s to dst is fully live.
		desc[g.SwitchIndex(dstSw)] = true
		// Process ancestors level by level above the leaf.
		for lv := 2; lv <= ft.Height; lv++ {
			for _, s := range byLevel[lv] {
				if !ft.Ancestors(s, dst) {
					continue
				}
				l := ft.DownLink(s, ft.DownDigit(s, dst))
				if l == nil || l.Down {
					continue
				}
				if desc[g.SwitchIndex(l.Other(s))] {
					si := g.SwitchIndex(s)
					desc[si] = true
					descLink[si] = l
				}
			}
		}

		// Phase 2: cost from every switch, top level first (up moves only
		// increase level, so dependencies point upward).
		for lv := ft.Height; lv >= 1; lv-- {
			for _, s := range byLevel[lv] {
				si := g.SwitchIndex(s)
				if desc[si] {
					cost[si] = float64(lv - 1) // hops down to dst leaf
					if s != dstSw {
						next[si] = descLink[si].Channel(s)
					}
					continue
				}
				if lv == ft.Height {
					continue // top switch without descent: unreachable
				}
				best := math.Inf(1)
				bestY := -1
				prefer := (dstIdx / stride[lv]) % ft.Cfg.W[lv]
				for dy := 0; dy < ft.Cfg.W[lv]; dy++ {
					y := (prefer + dy) % ft.Cfg.W[lv] // D-Mod-K digit first
					l := ft.UpLink(s, y)
					if l == nil || l.Down {
						continue
					}
					c := cost[g.SwitchIndex(l.Other(s))]
					if c < 0 {
						continue
					}
					if c+1 < best {
						best = c + 1
						bestY = y
					}
				}
				if bestY < 0 {
					continue // unreachable from here
				}
				cost[si] = best
				next[si] = ft.UpLink(s, bestY).Channel(s)
			}
		}

		for off := 0; off < span; off++ {
			lid := t.BaseLID[di] + LID(off)
			for si, c := range next {
				if c != NoChannel {
					t.SetNextHop(g.Switches()[si], lid, c)
				}
			}
			// Delivery hop.
			for _, l := range g.Nodes[dst].Ports {
				if l != nil && !l.Down && l.Other(dst) == dstSw {
					t.SetNextHop(dstSw, lid, l.Channel(dstSw))
				}
			}
		}
	}
	t.laneRank = [][]int32{valleyFreeRank(ft)}
	t.Freeze()
	return t, nil
}

// valleyFreeRank ranks the switch channels of ft for the lane certificate
// (Tables.laneRank): up channels by the level they leave, then down
// channels by falling level. Every up*down* path climbs in rank, so this
// one order proves FTree's single lane acyclic.
func valleyFreeRank(ft *topo.FatTree) []int32 {
	g := ft.Graph
	top := int32(2 * ft.Height)
	rank := make([]int32, 2*len(g.Links))
	for _, l := range g.Links {
		lo, hi := l.A, l.B
		if ft.Level(lo) > ft.Level(hi) {
			lo, hi = hi, lo
		}
		rank[l.Channel(lo)] = int32(ft.Level(lo))
		rank[l.Channel(hi)] = top - int32(ft.Level(hi))
	}
	return rank
}

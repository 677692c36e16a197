package route

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/topo"
)

// Fault-tolerant HyperX routing engines, after the restricted non-minimal
// schemes of Camarero, Martínez and Beivide (arXiv:2404.04315). Both are
// destination-based LFT engines that survive link loss by construction:
//
//   - HXMin ("hxmin") keeps dimension-order minimal routing and, when the
//     direct in-line link of the lowest uncorrected dimension is down,
//     escapes over a two-hop in-line detour whose intermediate coordinate
//     is strictly below BOTH endpoint coordinates. The restriction makes
//     the in-line channel dependencies strictly coordinate-decreasing, so
//     a single virtual lane stays deadlock-free (see the argument at
//     hxminEscape); the price is that pairs whose only detours run through
//     higher coordinates become unreachable and are reported explicitly.
//
//   - HXNonMin ("hxnm") drops the dimension-order restriction: every
//     destination gets a BFS distance field over the live fabric and each
//     switch forwards to a strictly-closer neighbor, preferring in-order
//     minimal hops, then restricted escapes, then arbitrary misroutes.
//     Any pair the fabric connects stays routable; deadlock freedom comes
//     from DFSSSP-style virtual-lane layering of the resulting paths.
//
// Both engines degrade gracefully: pairs they cannot serve are left
// unprogrammed (Tables.Path returns ErrNoRoute, Validate counts them as
// unreachable) instead of failing the build.

// HXMin builds minimal-with-restricted-escape tables for a HyperX. The
// result uses one virtual lane; the in-engine lane pass re-verifies the
// deadlock argument and errors instead of returning an unsafe table.
func HXMin(hx *topo.HyperX, lmc uint8) (*Tables, error) {
	t := newTables(hx.Graph, "hxmin", lmc, nil)
	g := hx.Graph
	cw := NewChannelWeights(g)
	span := 1 << lmc
	for di, dst := range g.Terminals() {
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			continue // detached destination: its LIDs stay unreachable
		}
		dc := hx.Coord(dstSw)
		for off := 0; off < span; off++ {
			lid := t.BaseLID[di] + LID(off)
			installHyperXDelivery(t, lid, dstSw, dst)
			for _, s := range g.Switches() {
				if s == dstSw {
					continue
				}
				sc := hx.Coord(s)
				d := lowestDiffDim(sc, dc)
				v := lineNeighbor(hx, sc, d, dc[d])
				if c := bestLiveChannel(g, cw, s, v); c != NoChannel {
					t.SetNextHop(s, lid, c)
					cw.Add(c, 1)
					continue
				}
				if c, c2 := hxminEscape(hx, cw, s, v, sc[d], dc[d], d); c != NoChannel {
					t.SetNextHop(s, lid, c)
					cw.Add(c, 1)
					cw.Add(c2, 1)
				}
				// No direct link and no restricted escape: leave the entry
				// unprogrammed. Validate reports the pair unreachable.
			}
		}
	}
	if err := assignLanes(t, 1, true); err != nil {
		return nil, fmt.Errorf("route: hxmin deadlock restriction violated: %w", err)
	}
	t.Freeze()
	return t, nil
}

// hxminEscape picks the two-hop in-line detour s -> m -> v with the
// low-coordinate restriction coord(m) < min(coord(s), coord(v)).
//
// Deadlock argument: within one line, every dependency this rule creates
// between channels (x->y) and (y->z) has coord(y) < coord(x). A dependency
// cycle inside the line would therefore have strictly decreasing tail
// coordinates all the way around — impossible. Across dimensions, HXMin
// corrects coordinates in strictly increasing dimension order, so
// cross-dimension dependencies only point from lower to higher dimensions.
// Both together make the whole CDG acyclic on a single virtual lane.
//
// It returns the first hop's channel and the second hop's channel (for
// weight accounting), or NoChannel when no restricted intermediate has both
// links live.
func hxminEscape(hx *topo.HyperX, cw *ChannelWeights, s, v topo.NodeID, sCoord, dCoord, d int) (topo.ChannelID, topo.ChannelID) {
	low := sCoord
	if dCoord < low {
		low = dCoord
	}
	sc := hx.Coord(s)
	for m := low - 1; m >= 0; m-- {
		mSw := lineNeighbor(hx, sc, d, m)
		c1 := bestLiveChannel(hx.Graph, cw, s, mSw)
		if c1 == NoChannel {
			continue
		}
		c2 := bestLiveChannel(hx.Graph, cw, mSw, v)
		if c2 == NoChannel {
			continue
		}
		return c1, c2
	}
	return NoChannel, NoChannel
}

// HXNonMin builds non-minimal fault-tolerant tables for a HyperX: every
// switch forwards toward a destination along a strictly distance-decreasing
// live neighbor (BFS metric on the degraded fabric), ranked to prefer
// in-dimension-order minimal hops, then restricted escapes, then arbitrary
// detours. Paths are spread over at most maxVL virtual lanes with acyclic
// per-lane CDGs; exceeding the budget is an error (the SM keeps the old
// tables rather than accept a deadlock-prone sweep).
func HXNonMin(hx *topo.HyperX, lmc uint8, maxVL int) (*Tables, error) {
	t := newTables(hx.Graph, "hxnm", lmc, nil)
	g := hx.Graph
	cw := NewChannelWeights(g)
	span := 1 << lmc
	dist := make([]int32, g.NumSwitches())
	queue := make([]topo.NodeID, 0, g.NumSwitches())
	for di, dst := range g.Terminals() {
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			continue
		}
		dc := hx.Coord(dstSw)
		// BFS hop distances toward dstSw over live switch links.
		for i := range dist {
			dist[i] = -1
		}
		dist[g.SwitchIndex(dstSw)] = 0
		queue = append(queue[:0], dstSw)
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, l := range g.Nodes[cur].Ports {
				if l == nil || l.Down {
					continue
				}
				o := l.Other(cur)
				oi := g.SwitchIndex(o)
				if oi < 0 || dist[oi] >= 0 {
					continue
				}
				dist[oi] = dist[g.SwitchIndex(cur)] + 1
				queue = append(queue, o)
			}
		}
		for off := 0; off < span; off++ {
			lid := t.BaseLID[di] + LID(off)
			installHyperXDelivery(t, lid, dstSw, dst)
			for _, s := range g.Switches() {
				si := g.SwitchIndex(s)
				if s == dstSw || dist[si] < 0 {
					continue // the destination, or a switch the fabric lost
				}
				c := hxnmNextHop(hx, cw, dist, s, dc)
				if c != NoChannel {
					t.SetNextHop(s, lid, c)
					cw.Add(c, 1)
				}
			}
		}
	}
	if err := assignLanes(t, maxVL, true); err != nil {
		return nil, err
	}
	t.Freeze()
	return t, nil
}

// hxnmNextHop ranks s's live strictly-closer neighbors toward the
// destination coordinates and returns the channel of the best one. Ranks,
// best first: the minimal hop of the lowest uncorrected dimension; a
// restricted low-coordinate escape in that dimension; any other hop in that
// dimension; a minimal hop of a later dimension; anything else. Ties break
// on channel weight, then channel ID — deterministic for a given build
// order. Distance strictly decreases every hop, so the tables are loop-free
// by construction.
func hxnmNextHop(hx *topo.HyperX, cw *ChannelWeights, dist []int32, s topo.NodeID, dc []int) topo.ChannelID {
	g := hx.Graph
	si := g.SwitchIndex(s)
	sc := hx.Coord(s)
	d := lowestDiffDim(sc, dc)
	best := NoChannel
	bestRank := 0
	bestWeight := 0.0
	for _, l := range g.Nodes[s].Ports {
		if l == nil || l.Down {
			continue
		}
		w := l.Other(s)
		wi := g.SwitchIndex(w)
		if wi < 0 || dist[wi] != dist[si]-1 {
			continue
		}
		wc := hx.Coord(w)
		dd := lowestDiffDim(sc, wc) // the single dimension the hop moves in
		var rank int
		switch {
		case dd == d && wc[d] == dc[d]:
			rank = 0
		case dd == d && wc[d] < sc[d] && wc[d] < dc[d]:
			rank = 1
		case dd == d:
			rank = 2
		case wc[dd] == dc[dd]:
			rank = 3
		default:
			rank = 4
		}
		c := l.Channel(s)
		weight := cw.Get(c)
		if best == NoChannel || rank < bestRank ||
			(rank == bestRank && (weight < bestWeight || (weight == bestWeight && c < best))) {
			best, bestRank, bestWeight = c, rank, weight
		}
	}
	return best
}

// installHyperXDelivery programs the destination switch's delivery hop.
func installHyperXDelivery(t *Tables, lid LID, dstSw, dst topo.NodeID) {
	g := t.G
	for _, l := range g.Nodes[dst].Ports {
		if l != nil && !l.Down && l.Other(dst) == dstSw {
			t.SetNextHop(dstSw, lid, l.Channel(dstSw))
			return
		}
	}
}

// lowestDiffDim returns the first dimension where the coordinates differ.
// The caller guarantees they are not equal.
func lowestDiffDim(a, b []int) int {
	for d := range a {
		if a[d] != b[d] {
			return d
		}
	}
	panic("route: identical coordinates")
}

// lineNeighbor returns the switch matching sc except for coordinate v in
// dimension d.
func lineNeighbor(hx *topo.HyperX, sc []int, d, v int) topo.NodeID {
	c := make([]int, len(sc))
	copy(c, sc)
	c[d] = v
	return hx.SwitchAt(c...)
}

// bestLiveChannel returns the lowest-(weight, ID) live channel from a to b,
// or NoChannel. With K parallel links per dimension this is what spreads
// destinations across the parallels.
func bestLiveChannel(g *topo.Graph, cw *ChannelWeights, a, b topo.NodeID) topo.ChannelID {
	best := NoChannel
	bestWeight := 0.0
	for _, l := range g.Nodes[a].Ports {
		if l == nil || l.Down || l.Other(a) != b {
			continue
		}
		c := l.Channel(a)
		w := cw.Get(c)
		if best == NoChannel || w < bestWeight || (w == bestWeight && c < best) {
			best, bestWeight = c, w
		}
	}
	return best
}

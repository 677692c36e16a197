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
	t, err := newTables(hx.Graph, "hxmin", lmc, nil)
	if err != nil {
		return nil, err
	}
	g := hx.Graph
	ll := newLiveLinks(g)
	cw := NewChannelWeights(g)
	buf := make([]int, hx.Dims())
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
			for si, s := range g.Switches() {
				if s == dstSw {
					continue
				}
				sc := hx.Coord(s)
				d := lowestDiffDim(sc, dc)
				vi := lineNeighbor(hx, buf, sc, d, dc[d])
				if c := bestLiveChannel(ll, cw, si, vi); c != NoChannel {
					t.SetNextHop(s, lid, c)
					cw.Add(c, 1)
					continue
				}
				if c, c2 := hxminEscape(hx, ll, cw, buf, si, vi, sc, dc[d], d); c != NoChannel {
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
// low-coordinate restriction coord(m) < min(coord(s), coord(v)), for
// switch indexes si and vi, s's coordinates sc and v's coordinate dCoord
// in dimension d.
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
func hxminEscape(hx *topo.HyperX, ll *liveLinks, cw *ChannelWeights, buf []int, si, vi int, sc []int, dCoord, d int) (topo.ChannelID, topo.ChannelID) {
	for m := min(sc[d], dCoord) - 1; m >= 0; m-- {
		mi := lineNeighbor(hx, buf, sc, d, m)
		c1 := bestLiveChannel(ll, cw, si, mi)
		if c1 == NoChannel {
			continue
		}
		c2 := bestLiveChannel(ll, cw, mi, vi)
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
	t, err := newTables(hx.Graph, "hxnm", lmc, nil)
	if err != nil {
		return nil, err
	}
	g := hx.Graph
	ll := newLiveLinks(g)
	cw := NewChannelWeights(g)
	span := 1 << lmc
	dist := make([]int32, g.NumSwitches())
	queue := make([]int32, 0, g.NumSwitches())
	distOf := -1 // the destination switch index dist holds
	for di, dst := range g.Terminals() {
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			continue
		}
		dc := hx.Coord(dstSw)
		// BFS hop distances toward dstSw over live switch links. They
		// depend on the destination switch alone, so consecutive
		// terminals on one switch (all of a HyperX switch's terminals)
		// share one BFS.
		if dstIdx := g.SwitchIndex(dstSw); dstIdx != distOf {
			distOf = dstIdx
			for i := range dist {
				dist[i] = -1
			}
			dist[dstIdx] = 0
			queue = append(queue[:0], int32(dstIdx))
			for head := 0; head < len(queue); head++ {
				cur := queue[head]
				_, tos := ll.of(int(cur))
				for _, oi := range tos {
					if dist[oi] < 0 {
						dist[oi] = dist[cur] + 1
						queue = append(queue, oi)
					}
				}
			}
		}
		for off := 0; off < span; off++ {
			lid := t.BaseLID[di] + LID(off)
			installHyperXDelivery(t, lid, dstSw, dst)
			for si, s := range g.Switches() {
				if s == dstSw || dist[si] < 0 {
					continue // the destination, or a switch the fabric lost
				}
				c := hxnmNextHop(hx, ll, cw, dist, si, dc)
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

// hxnmNextHop ranks switch si's live strictly-closer neighbors toward the
// destination coordinates and returns the channel of the best one. Ranks,
// best first: the minimal hop of the lowest uncorrected dimension; a
// restricted low-coordinate escape in that dimension; any other hop in that
// dimension; a minimal hop of a later dimension; anything else. Ties break
// on channel weight, then channel ID: a total order, so the pick does not
// depend on the order the neighbors are visited in. Distance strictly
// decreases every hop, so the tables are loop-free by construction.
func hxnmNextHop(hx *topo.HyperX, ll *liveLinks, cw *ChannelWeights, dist []int32, si int, dc []int) topo.ChannelID {
	sws := hx.Switches()
	sc := hx.Coord(sws[si])
	d := lowestDiffDim(sc, dc)
	best := NoChannel
	bestRank := 0
	bestWeight := 0.0
	chs, tos := ll.of(si)
	for i, c := range chs {
		wi := tos[i]
		if dist[wi] != dist[si]-1 {
			continue
		}
		wc := hx.Coord(sws[wi])
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

// lineNeighbor returns the switch index of the switch matching sc except
// for coordinate v in dimension d, assembling the coordinates in buf.
func lineNeighbor(hx *topo.HyperX, buf, sc []int, d, v int) int {
	copy(buf, sc)
	buf[d] = v
	return hx.SwitchIndex(hx.SwitchAt(buf...))
}

// bestLiveChannel returns the lowest-(weight, ID) live channel from switch
// index a to switch index b, or NoChannel. With K parallel links per
// dimension this is what spreads destinations across the parallels. It
// reads a's live links from the index; (weight, ID) is a total order, so
// the pick does not depend on the order they come in.
func bestLiveChannel(ll *liveLinks, cw *ChannelWeights, a, b int) topo.ChannelID {
	best := NoChannel
	bestWeight := 0.0
	chs, tos := ll.of(a)
	for i, c := range chs {
		if int(tos[i]) != b {
			continue
		}
		w := cw.Get(c)
		if best == NoChannel || w < bestWeight || (w == bestWeight && c < best) {
			best, bestWeight = c, w
		}
	}
	return best
}

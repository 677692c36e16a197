package route

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/topo"
)

// The engines as they were before the live-link index, kept as the
// reference the equivalence tests compare against. Every search for a
// switch's live switch neighbours scans all of the switch's ports, hxnm
// runs one BFS per destination terminal, and LASH one Dijkstra per
// destination terminal. The SSSP family's search is a heap Dijkstra, and
// its balancing traces each source terminal's path.

func refHXMin(hx *topo.HyperX, lmc uint8) (*Tables, error) {
	t, err := newTables(hx.Graph, "hxmin", lmc, nil)
	if err != nil {
		return nil, err
	}
	g := hx.Graph
	cw := NewChannelWeights(g)
	span := 1 << lmc
	for di, dst := range g.Terminals() {
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			continue
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
				v := refLineNeighbor(hx, sc, d, dc[d])
				if c := refBestLiveChannel(g, cw, s, v); c != NoChannel {
					t.SetNextHop(s, lid, c)
					cw.Add(c, 1)
					continue
				}
				if c, c2 := refHXMinEscape(hx, cw, s, v, sc[d], dc[d], d); c != NoChannel {
					t.SetNextHop(s, lid, c)
					cw.Add(c, 1)
					cw.Add(c2, 1)
				}
			}
		}
	}
	if err := assignLanes(t, 1, true); err != nil {
		return nil, fmt.Errorf("route: hxmin deadlock restriction violated: %w", err)
	}
	t.Freeze()
	return t, nil
}

func refHXMinEscape(hx *topo.HyperX, cw *ChannelWeights, s, v topo.NodeID, sCoord, dCoord, d int) (topo.ChannelID, topo.ChannelID) {
	low := sCoord
	if dCoord < low {
		low = dCoord
	}
	sc := hx.Coord(s)
	for m := low - 1; m >= 0; m-- {
		mSw := refLineNeighbor(hx, sc, d, m)
		c1 := refBestLiveChannel(hx.Graph, cw, s, mSw)
		if c1 == NoChannel {
			continue
		}
		c2 := refBestLiveChannel(hx.Graph, cw, mSw, v)
		if c2 == NoChannel {
			continue
		}
		return c1, c2
	}
	return NoChannel, NoChannel
}

func refHXNonMin(hx *topo.HyperX, lmc uint8, maxVL int) (*Tables, error) {
	t, err := newTables(hx.Graph, "hxnm", lmc, nil)
	if err != nil {
		return nil, err
	}
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
					continue
				}
				c := refHXNMNextHop(hx, cw, dist, s, dc)
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

func refHXNMNextHop(hx *topo.HyperX, cw *ChannelWeights, dist []int32, s topo.NodeID, dc []int) topo.ChannelID {
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
		dd := lowestDiffDim(sc, wc)
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

func refLineNeighbor(hx *topo.HyperX, sc []int, d, v int) topo.NodeID {
	c := make([]int, len(sc))
	copy(c, sc)
	c[d] = v
	return hx.SwitchAt(c...)
}

func refBestLiveChannel(g *topo.Graph, cw *ChannelWeights, a, b topo.NodeID) topo.ChannelID {
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

func refSSSP(g *topo.Graph, lmc uint8) (*Tables, error) {
	t, err := newTables(g, "sssp", lmc, nil)
	if err != nil {
		return nil, err
	}
	refSSSPCore(t, SSSPOptions{})
	t.Freeze()
	return t, nil
}

func refDFSSSP(g *topo.Graph, lmc uint8, maxVL int) (*Tables, error) {
	t, err := newTables(g, "dfsssp", lmc, nil)
	if err != nil {
		return nil, err
	}
	refSSSPCore(t, SSSPOptions{})
	if err := AssignVLs(t, maxVL); err != nil {
		return nil, err
	}
	t.Freeze()
	return t, nil
}

func refSSSPCore(t *Tables, opts SSSPOptions) {
	g := t.G
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
			continue
		}
		for off := 0; off < span; off++ {
			lid := t.BaseLID[di] + LID(off)
			var mask LinkMask
			if opts.MaskFor != nil {
				mask = opts.MaskFor(dst, uint8(off))
			}
			sp := refShortestPathsTo(g, dstSw, cw, mask)
			if mask != nil && sp.Reached() < g.NumSwitches() {
				sp.Release()
				sp = refShortestPathsTo(g, dstSw, cw, nil)
			}
			installLFT(t, lid, dstSw, dst, sp)
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
}

func refLASH(g *topo.Graph, lmc uint8, maxVL int) (*Tables, error) {
	t, err := newTables(g, "lash", lmc, nil)
	if err != nil {
		return nil, err
	}
	cw := NewChannelWeights(g)
	span := 1 << t.LMC
	for di, dst := range g.Terminals() {
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			continue
		}
		sp := refShortestPathsTo(g, dstSw, cw, nil)
		for off := 0; off < span; off++ {
			installLFT(t, t.BaseLID[di]+LID(off), dstSw, dst, sp)
		}
		sp.Release()
	}
	if err := AssignVLs(t, maxVL); err != nil {
		return nil, err
	}
	t.Freeze()
	return t, nil
}

// refShortestPathsTo is the modified Dijkstra over a binary heap of
// (hops, weight, push sequence) with lazy deletion, scanning every port of
// the popped switch. It fills the tree's entries and its finalisation
// order, which is all installLFT, tracePath and Reached read.
func refShortestPathsTo(g *topo.Graph, dstSwitch topo.NodeID, cw *ChannelWeights, mask LinkMask) *SPTree {
	t := newSPTree(g.NumSwitches())
	done := make([]bool, g.NumSwitches())
	var h refHeap
	var seq int32
	dstIdx := int32(g.SwitchIndex(dstSwitch))
	t.entries[dstIdx] = spEntry{hops: 0, weight: 0, next: NoChannel, up: -1}
	h.push(heapItem{swIdx: dstIdx})
	seq++
	for len(h) > 0 {
		cur := h.pop()
		if done[cur.swIdx] {
			continue
		}
		done[cur.swIdx] = true
		t.order = append(t.order, cur.swIdx)
		curSw := g.Switches()[cur.swIdx]
		for _, l := range g.Nodes[curSw].Ports {
			if l == nil || l.Down {
				continue
			}
			u := l.Other(curSw)
			ui := g.SwitchIndex(u)
			if ui < 0 || done[ui] {
				continue
			}
			if mask != nil && !mask(l) {
				continue
			}
			ch := l.Channel(u)
			nh := cur.hops + 1
			nw := cur.weight + cw.Get(ch)
			old := t.entries[ui]
			if old.hops < 0 || nh < old.hops || (nh == old.hops && nw < old.weight-1e-12) {
				t.entries[ui] = spEntry{hops: nh, weight: nw, next: ch, up: cur.swIdx}
				h.push(heapItem{swIdx: int32(ui), hops: nh, weight: nw, seq: seq})
				seq++
			}
		}
	}
	return t
}

// heapItem is one pending queue entry of refShortestPathsTo.
type heapItem struct {
	swIdx  int32
	hops   int32
	seq    int32
	weight float64
}

func itemLess(a, b heapItem) bool {
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	return a.seq < b.seq
}

// refHeap is a binary min-heap of items by value.
type refHeap []heapItem

func (hp *refHeap) push(it heapItem) {
	h := append(*hp, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*hp = h
}

func (hp *refHeap) pop() heapItem {
	h := *hp
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && itemLess(h[l], h[m]) {
			m = l
		}
		if r < n && itemLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*hp = h
	return top
}

// tracePath follows next-hop entries from src switch to the destination
// switch, returning the channel sequence. Returns nil if src has no entry.
func tracePath(t *SPTree, g *topo.Graph, src topo.NodeID) []topo.ChannelID {
	var out []topo.ChannelID
	cur := src
	for {
		e := t.entries[g.SwitchIndex(cur)]
		if e.hops < 0 {
			return nil
		}
		if e.next == NoChannel {
			return out
		}
		out = append(out, e.next)
		cur = g.ChannelTo(e.next)
		if len(out) > MaxHops {
			panic("route: tracePath loop")
		}
	}
}

package route

import (
	"sync"

	"github.com/hpcsim/t2hx/internal/topo"
)

// ChannelWeights carries the balancing state of SSSP-family engines: one
// weight per directed channel, incremented as paths are assigned. Costs are
// lexicographic (hops, weight) like Domke's (DF)SSSP implementation, so
// routing stays minimal while spreading load across equal-length
// alternatives.
type ChannelWeights struct {
	w []float64
}

// NewChannelWeights returns unit weights for every channel of g.
func NewChannelWeights(g *topo.Graph) *ChannelWeights {
	cw := &ChannelWeights{w: make([]float64, 2*len(g.Links))}
	for i := range cw.w {
		cw.w[i] = 1
	}
	return cw
}

// Get returns the weight of channel c.
func (cw *ChannelWeights) Get(c topo.ChannelID) float64 { return cw.w[c] }

// Add increases the weight of channel c by delta.
func (cw *ChannelWeights) Add(c topo.ChannelID, delta float64) { cw.w[c] += delta }

// LinkMask optionally hides links during path calculation; PARX uses it to
// virtually remove half of the HyperX (rules R1-R4). A nil mask hides
// nothing. Return true to keep the link.
type LinkMask func(l *topo.Link) bool

// spEntry is the per-switch result of a destination-rooted shortest-path
// computation. hops < 0 marks an unreached switch.
type spEntry struct {
	hops   int32
	weight float64
	// next is the channel a packet at this switch takes toward the
	// destination switch.
	next topo.ChannelID
}

// heapItem is one pending queue entry of the modified Dijkstra. Items are
// kept by value in a manual binary heap — no per-item allocation, no
// interface boxing — with lazy deletion via the done[] bitmap.
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

// SPTree is the shortest-path tree toward one destination switch, stored as
// flat slices over the graph's dense switch index (topo.Graph.SwitchIndex).
// Instances are pooled: callers must Release them when done and must not
// retain references afterwards.
type SPTree struct {
	entries []spEntry // by switch index; hops < 0 = unreached
	done    []bool
	heap    []heapItem
	path    []topo.ChannelID // reusable tracePath buffer
	reached int
}

// Reached reports how many switches (including the destination) have a
// path toward the destination.
func (t *SPTree) Reached() int { return t.reached }

var spPool = sync.Pool{New: func() any { return new(SPTree) }}

func newSPTree(numSwitches int) *SPTree {
	t := spPool.Get().(*SPTree)
	if cap(t.entries) < numSwitches {
		t.entries = make([]spEntry, numSwitches)
		t.done = make([]bool, numSwitches)
	}
	t.entries = t.entries[:numSwitches]
	t.done = t.done[:numSwitches]
	for i := range t.entries {
		t.entries[i] = spEntry{hops: -1}
		t.done[i] = false
	}
	t.heap = t.heap[:0]
	t.reached = 0
	return t
}

// Release returns the tree's scratch buffers to the pool.
func (t *SPTree) Release() { spPool.Put(t) }

func (t *SPTree) push(it heapItem) {
	h := append(t.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	t.heap = h
}

func (t *SPTree) pop() heapItem {
	h := t.heap
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
	t.heap = h
	return top
}

// shortestPathsTo computes, for every switch, the next-hop channel toward
// dstSwitch, minimizing (hop count, accumulated channel weight) with
// deterministic tie-breaking. It expands switches over the live-link index
// ll, which must describe g's current Down flags; links failing mask are
// ignored. Unreachable switches have hops < 0 in the result.
//
// This is the modified Dijkstra at the heart of (DF)SSSP and PARX: traffic
// from switch u toward the destination uses channel u->parent(u), and the
// weight consulted is that of the channel in travel direction. Heap ties
// break on push order, which follows the index's port order. The caller
// owns the returned tree and must Release it.
func shortestPathsTo(g *topo.Graph, ll *liveLinks, dstSwitch topo.NodeID, cw *ChannelWeights, mask LinkMask) *SPTree {
	t := newSPTree(g.NumSwitches())
	var seq int32
	dstIdx := int32(g.SwitchIndex(dstSwitch))
	t.entries[dstIdx] = spEntry{hops: 0, weight: 0, next: NoChannel}
	t.reached++
	t.push(heapItem{swIdx: dstIdx})
	seq++
	for len(t.heap) > 0 {
		cur := t.pop()
		if t.done[cur.swIdx] {
			continue // lazy deletion: a better entry was already finalized
		}
		t.done[cur.swIdx] = true
		// Expand neighbors u of cur: u would travel u->cur.
		chs, tos := ll.of(int(cur.swIdx))
		for i, c := range chs {
			ui := tos[i]
			if t.done[ui] {
				continue
			}
			if mask != nil && !mask(g.Link(c)) {
				continue
			}
			ch := c ^ 1 // channel in travel direction u -> cur
			nh := cur.hops + 1
			nw := cur.weight + cw.Get(ch)
			old := t.entries[ui]
			if old.hops < 0 || nh < old.hops || (nh == old.hops && nw < old.weight-1e-12) {
				if old.hops < 0 {
					t.reached++
				}
				t.entries[ui] = spEntry{hops: nh, weight: nw, next: ch}
				t.push(heapItem{swIdx: ui, hops: nh, weight: nw, seq: seq})
				seq++
			}
		}
	}
	return t
}

// tracePath follows next-hop entries from src switch to the destination
// switch, returning the channel sequence. Returns nil if src has no entry.
// The returned slice aliases the tree's scratch buffer: it is valid only
// until the next tracePath call on the same tree or its Release.
func tracePath(t *SPTree, g *topo.Graph, src topo.NodeID) []topo.ChannelID {
	out := t.path[:0]
	cur := src
	for {
		e := t.entries[g.SwitchIndex(cur)]
		if e.hops < 0 {
			return nil
		}
		if e.next == NoChannel {
			t.path = out
			return out
		}
		out = append(out, e.next)
		cur = g.ChannelTo(e.next)
		if len(out) > MaxHops {
			panic("route: tracePath loop")
		}
	}
}

package route

import (
	"slices"
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
	hops int32
	// seq numbers the update that set the entry; within a hop level it
	// breaks weight ties, first update first.
	seq    int32
	weight float64
	// next is the channel a packet at this switch takes toward the
	// destination switch, and up the switch index it leads to.
	next topo.ChannelID
	up   int32
}

// SPTree is the shortest-path tree toward one destination switch, stored as
// flat slices over the graph's dense switch index (topo.Graph.SwitchIndex).
// Instances are pooled: callers must Release them when done and must not
// retain references afterwards.
type SPTree struct {
	entries []spEntry // by switch index; hops < 0 = unreached
	// order lists the reached switch indexes level by level, the
	// destination first: a switch's next hop leads to a switch listed
	// before it. Each level is in the order the search finalised it,
	// except the last level of a tree that reaches every switch, which
	// stays in discovery order: no search expands it, and SPTree.fold,
	// the one reader of its order, sums integers, which any order adds
	// alike.
	order []int32
}

// Reached reports how many switches (including the destination) have a
// path toward the destination.
func (t *SPTree) Reached() int { return len(t.order) }

var spPool = sync.Pool{New: func() any { return new(SPTree) }}

func newSPTree(numSwitches int) *SPTree {
	t := spPool.Get().(*SPTree)
	if cap(t.entries) < numSwitches {
		t.entries = make([]spEntry, numSwitches)
	}
	t.entries = t.entries[:numSwitches]
	for i := range t.entries {
		t.entries[i] = spEntry{hops: -1}
	}
	t.order = t.order[:0]
	return t
}

// Release returns the tree's scratch buffers to the pool.
func (t *SPTree) Release() { spPool.Put(t) }

// shortestPathsTo computes, for every switch, the next-hop channel toward
// dstSwitch, minimizing (hop count, accumulated channel weight) with
// deterministic tie-breaking. It expands switches over the live-link index
// ll, which must describe g's current Down flags; links failing mask are
// ignored. Unreachable switches have hops < 0 in the result.
//
// This is the modified Dijkstra at the heart of (DF)SSSP and PARX: traffic
// from switch u toward the destination uses channel u->parent(u), and the
// weight consulted is that of the channel in travel direction. Every
// channel costs one hop, so the search finalises switches one hop level at
// a time: expanding level h, in order, reaches level h+1, whose switches
// are then ordered by (weight, seq). That is the order in which a heap
// keyed on (hops, weight, push sequence) would pop them, so ties break on
// update order, which follows the index's port order. A level that
// completes the switch set is the last: expanding it can change no entry,
// so the search stops there and leaves it unsorted. The caller owns the
// returned tree and must Release it.
func shortestPathsTo(g *topo.Graph, ll *liveLinks, dstSwitch topo.NodeID, cw *ChannelWeights, mask LinkMask) *SPTree {
	t := newSPTree(g.NumSwitches())
	dstIdx := int32(g.SwitchIndex(dstSwitch))
	t.entries[dstIdx] = spEntry{next: NoChannel, up: -1}
	t.order = append(t.order, dstIdx)
	seq := int32(1)
	byWeight := func(a, b int32) int {
		ea, eb := &t.entries[a], &t.entries[b]
		switch {
		case ea.weight < eb.weight:
			return -1
		case ea.weight > eb.weight:
			return 1
		}
		return int(ea.seq - eb.seq)
	}
	for lo := 0; lo < len(t.order) && len(t.order) < len(t.entries); {
		hi := len(t.order)
		for _, cur := range t.order[lo:hi] {
			e := t.entries[cur]
			nh := e.hops + 1
			// Expand neighbors u of cur: u would travel u->cur. A neighbor
			// already on this level or below keeps its entry.
			chs, tos := ll.of(int(cur))
			for i, c := range chs {
				ui := tos[i]
				old := &t.entries[ui]
				if old.hops >= 0 && old.hops < nh {
					continue
				}
				if mask != nil && !mask(g.Link(c)) {
					continue
				}
				ch := c ^ 1 // channel in travel direction u -> cur
				nw := e.weight + cw.Get(ch)
				if old.hops < 0 {
					t.order = append(t.order, ui)
				} else if nw >= old.weight-1e-12 {
					continue
				}
				*old = spEntry{hops: nh, seq: seq, weight: nw, next: ch, up: cur}
				seq++
			}
		}
		if len(t.order) < len(t.entries) {
			slices.SortFunc(t.order[hi:], byWeight)
		}
		lo = hi
	}
	return t
}

// fold adds the tree's path weights to cw: sum[si] is the total weight of
// the paths that start at switch si, and every channel of the tree gains
// the weights of all paths that cross it. Walking the switches farthest
// first, each passes its sum to the channel toward its parent and on to
// the parent, one add per tree edge. fold consumes sum.
func (t *SPTree) fold(sum []float64, cw *ChannelWeights) {
	for i := len(t.order) - 1; i > 0; i-- {
		si := t.order[i]
		if s := sum[si]; s != 0 {
			e := &t.entries[si]
			cw.Add(e.next, s)
			sum[e.up] += s
		}
	}
}

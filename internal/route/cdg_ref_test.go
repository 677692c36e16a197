package route

import (
	"slices"

	"github.com/hpcsim/t2hx/internal/topo"
)

// refCDG is CDG's Pearce-Kelly insert as it was before it searched
// backward first and reordered by one scan of the window: the forward
// search from v reports the cycle, and each affected region is sorted by
// packed ord<<32 | channel keys before the two sorted slot lists merge.
// It is the reference the CDG tests, the lane-pass equivalence tests and
// FuzzLanePass compare CDG.AddEdge against, so it shares no code with it.
type refCDG struct {
	ord        []int32
	succ, pred [][]topo.ChannelID
	next       int32

	seen  []uint64
	epoch uint64
	stack []topo.ChannelID

	deltaF, deltaB []topo.ChannelID
}

func (g *refCDG) ensure(c topo.ChannelID) {
	for int(c) >= len(g.ord) {
		g.ord = append(g.ord, -1)
		g.succ = append(g.succ, nil)
		g.pred = append(g.pred, nil)
		g.seen = append(g.seen, 0)
	}
	if g.ord[c] < 0 {
		g.ord[c] = g.next
		g.next++
	}
}

func (g *refCDG) hasEdge(u, v topo.ChannelID) bool {
	if int(u) >= len(g.succ) {
		return false
	}
	for _, m := range g.succ[u] {
		if m == v {
			return true
		}
	}
	return false
}

// addEdge inserts u->v unless it would close a cycle, in which case it
// returns false and leaves the graph unchanged.
func (g *refCDG) addEdge(u, v topo.ChannelID) bool {
	if u == v {
		return false
	}
	g.ensure(u)
	g.ensure(v)
	if g.hasEdge(u, v) {
		return true
	}
	lb, ub := g.ord[v], g.ord[u]
	if lb > ub {
		// Order already consistent.
		g.succ[u] = append(g.succ[u], v)
		g.pred[v] = append(g.pred[v], u)
		return true
	}
	if g.dfsF(v, ub) {
		return false
	}
	g.dfsB(u, lb)
	g.reorder()
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
	return true
}

// dfsF collects into deltaF the nodes reachable from v with order <= ub,
// reporting true when it reaches u, of order ub.
func (g *refCDG) dfsF(v topo.ChannelID, ub int32) bool {
	g.epoch++
	g.seen[v] = g.epoch
	g.stack = append(g.stack[:0], v)
	g.deltaF = g.deltaF[:0]
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.deltaF = append(g.deltaF, n)
		for _, m := range g.succ[n] {
			o := g.ord[m]
			if o == ub {
				return true
			}
			if o < ub && g.seen[m] != g.epoch {
				g.seen[m] = g.epoch
				g.stack = append(g.stack, m)
			}
		}
	}
	return false
}

// dfsB collects into deltaB the nodes reaching u with order >= lb.
func (g *refCDG) dfsB(u topo.ChannelID, lb int32) {
	g.epoch++
	g.seen[u] = g.epoch
	g.stack = append(g.stack[:0], u)
	g.deltaB = g.deltaB[:0]
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.deltaB = append(g.deltaB, n)
		for _, m := range g.pred[n] {
			if g.ord[m] > lb && g.seen[m] != g.epoch {
				g.seen[m] = g.epoch
				g.stack = append(g.stack, m)
			}
		}
	}
}

// reorder sorts each region by packed ord<<32 | channel keys, merges the
// two sorted slot lists, and hands the slots to deltaB's nodes, then
// deltaF's, in their old order.
func (g *refCDG) reorder() {
	var keys []uint64
	for _, n := range g.deltaB {
		keys = append(keys, uint64(g.ord[n])<<32|uint64(n))
	}
	nb := len(keys)
	for _, n := range g.deltaF {
		keys = append(keys, uint64(g.ord[n])<<32|uint64(n))
	}
	b, f := keys[:nb], keys[nb:]
	slices.Sort(b)
	slices.Sort(f)
	var slots []int32
	for i, j := 0, 0; i < len(b) || j < len(f); {
		if j == len(f) || i < len(b) && b[i] < f[j] {
			slots = append(slots, int32(b[i]>>32))
			i++
		} else {
			slots = append(slots, int32(f[j]>>32))
			j++
		}
	}
	for i, k := range keys {
		g.ord[topo.ChannelID(uint32(k))] = slots[i]
	}
}

// removeEdge deletes u->v, which must be present.
func (g *refCDG) removeEdge(u, v topo.ChannelID) {
	i, j := slices.Index(g.succ[u], v), slices.Index(g.pred[v], u)
	g.succ[u] = slices.Delete(g.succ[u], i, i+1)
	g.pred[v] = slices.Delete(g.pred[v], j, j+1)
}

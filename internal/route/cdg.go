package route

import (
	"slices"

	"github.com/hpcsim/t2hx/internal/topo"
)

// CDG is a channel dependency graph: nodes are directed switch-to-switch
// channels, and an edge c1->c2 records that some routed path uses c2
// immediately after c1. A routing is deadlock-free on one virtual lane iff
// its CDG is acyclic (Dally & Seitz); DFSSSP and PARX split the path set
// across virtual lanes so that each lane's CDG stays acyclic.
//
// CDG maintains a topological order incrementally (Pearce-Kelly): adding an
// edge either succeeds in amortized small cost or reports that it would
// close a cycle, in which case the graph is left unchanged.
//
// AddPath also records the dependencies it refused on the committed edges
// alone, before adding any edge of the path at hand. Committed edges are
// never removed (a rollback removes only the edges of the path it rolls
// back), so the cycle such a refusal found stays, and AddPath refuses the
// recorded dependency again without a search. A refusal that may run
// through the path's own edges is not recorded: a rollback removes them.
// A refused dependency never touches the order, so the record changes no
// result, only the work.
//
// Storage is dense: channel IDs are small and contiguous (they index the
// topology's link array), so adjacency, order, and DFS-visited state are
// slices indexed by topo.ChannelID rather than nested maps. Per-channel
// successor lists stay short — bounded by switch radix — so membership
// tests are linear scans over a cache-resident slice.
type CDG struct {
	// ord[c] is c's topological order, or -1 while c is not a node, and
	// at[o] the channel of order o: at[ord[c]] == c.
	ord []int32
	at  []topo.ChannelID
	// succ[c] / pred[c] list c's dependency neighbours.
	succ, pred [][]topo.ChannelID
	next       int32

	// DFS scratch, reused across operations: seen[c] holds the epoch of
	// the last traversal that visited c.
	seen  []uint64
	epoch uint64
	stack []topo.ChannelID

	// AddEdge scratch: the affected regions, and the order slots they
	// share.
	deltaF, deltaB []topo.ChannelID
	slots          []int32

	// AddPath scratch.
	added [][2]topo.ChannelID
	// refused[u] lists the v of each refused dependency u->v that the
	// committed edges alone close a cycle through. nil until the first
	// such refusal.
	refused [][]topo.ChannelID
}

// NewCDG returns an empty channel dependency graph.
func NewCDG() *CDG {
	return &CDG{}
}

// newCDG returns an empty CDG whose per-channel arrays have room for the
// given number of channels: a lane over a graph's channels then grows them
// without reallocating.
func newCDG(channels int) *CDG {
	return &CDG{
		ord:  make([]int32, 0, channels),
		at:   make([]topo.ChannelID, 0, channels),
		succ: make([][]topo.ChannelID, 0, channels),
		pred: make([][]topo.ChannelID, 0, channels),
		seen: make([]uint64, 0, channels),
	}
}

// grow extends the per-channel arrays to cover c.
func (g *CDG) grow(c topo.ChannelID) {
	for int(c) >= len(g.ord) {
		g.ord = append(g.ord, -1)
		g.succ = append(g.succ, nil)
		g.pred = append(g.pred, nil)
		g.seen = append(g.seen, 0)
	}
}

func (g *CDG) ensure(c topo.ChannelID) {
	g.grow(c)
	if g.ord[c] >= 0 {
		return
	}
	g.ord[c] = g.next
	g.next++
	g.at = append(g.at, c)
}

// HasEdge reports whether the dependency u->v is already present.
func (g *CDG) HasEdge(u, v topo.ChannelID) bool {
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

// AddEdge inserts the dependency u->v unless it would create a cycle, in
// which case it returns false and leaves the graph unchanged. Self-loops
// (u == v) are rejected as cycles.
func (g *CDG) AddEdge(u, v topo.ChannelID) bool {
	if u == v {
		return false
	}
	g.ensure(u)
	g.ensure(v)
	if g.HasEdge(u, v) {
		return true
	}
	lb, ub := g.ord[v], g.ord[u]
	if lb > ub {
		// Order already consistent.
		g.succ[u] = append(g.succ[u], v)
		g.pred[v] = append(g.pred[v], u)
		return true
	}
	// Every path v ~> u rises through the window [lb..ub], so the
	// backward search from u within it meets v exactly when the forward
	// search from v would meet u: when the edge would close a cycle. On
	// the lane pass's refusals it visits fewer channels (DESIGN §9).
	if g.dfsB(u, lb) {
		return false
	}
	g.dfsF(v, ub)
	g.reorder(lb, ub)
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
	return true
}

// dfsB collects into deltaB the nodes reaching u with order > lb, all of
// them marked with the search's epoch. Reaching order == lb means reaching
// v: a cycle, reported as true.
func (g *CDG) dfsB(u topo.ChannelID, lb int32) bool {
	g.epoch++
	g.seen[u] = g.epoch
	g.stack = append(g.stack[:0], u)
	g.deltaB = g.deltaB[:0]
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.deltaB = append(g.deltaB, n)
		for _, m := range g.pred[n] {
			o := g.ord[m]
			if o == lb {
				return true // found v: cycle
			}
			if o > lb && g.seen[m] != g.epoch {
				g.seen[m] = g.epoch
				g.stack = append(g.stack, m)
			}
		}
	}
	return false
}

// dfsF collects into deltaF the nodes reachable from v with order < ub,
// all of them marked with the search's epoch. It runs after dfsB found no
// cycle, so it never reaches u.
func (g *CDG) dfsF(v topo.ChannelID, ub int32) {
	g.epoch++
	g.seen[v] = g.epoch
	g.stack = append(g.stack[:0], v)
	g.deltaF = g.deltaF[:0]
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.deltaF = append(g.deltaF, n)
		for _, m := range g.succ[n] {
			if g.ord[m] < ub && g.seen[m] != g.epoch {
				g.seen[m] = g.epoch
				g.stack = append(g.stack, m)
			}
		}
	}
}

// reorder moves the affected regions of an insert within the window
// [lb..ub] so that every deltaB node precedes every deltaF node, each
// region keeping its relative order, and reuses the union of their order
// slots. The regions are disjoint (a node in both would close a cycle),
// and dfsF's epoch is the last, dfsB's the one before it, so one scan of
// the window in order lists both regions in order, and the slots. The
// result depends on the two sets alone, not on the order the searches
// met them.
func (g *CDG) reorder(lb, ub int32) {
	inF, inB := g.epoch, g.epoch-1
	slots, b, f := g.slots[:0], g.deltaB[:0], g.deltaF[:0]
	for o := lb; o <= ub; o++ {
		switch c := g.at[o]; g.seen[c] {
		case inB:
			b = append(b, c)
			slots = append(slots, o)
		case inF:
			f = append(f, c)
			slots = append(slots, o)
		}
	}
	for i, c := range b {
		g.place(c, slots[i])
	}
	for i, c := range f {
		g.place(c, slots[len(b)+i])
	}
	g.slots, g.deltaB, g.deltaF = slots, b, f
}

// place gives channel c order o, keeping at[ord[c]] == c.
func (g *CDG) place(c topo.ChannelID, o int32) {
	g.ord[c] = o
	g.at[o] = c
}

// AddPath inserts the dependencies between consecutive channels of span,
// rolling back any edges it added if one of them would close a cycle. It
// returns false (and leaves the edges unchanged) on cycle.
//
// span holds a path's switch-to-switch channels only: injection
// (terminal->switch) and delivery (switch->terminal) channels cannot be
// part of a credit cycle, matching how OpenSM builds its CDG. Of a path
// Tables.Path returns, that is path[1:len(path)-1].
func (g *CDG) AddPath(span []topo.ChannelID) bool {
	added := g.added[:0]
	for i := 0; i+1 < len(span); i++ {
		u, v := span[i], span[i+1]
		if g.HasEdge(u, v) {
			continue
		}
		if g.refuses(u, v) {
			return g.rollback(added)
		}
		if !g.AddEdge(u, v) {
			if len(added) == 0 {
				g.refuse(u, v)
			}
			return g.rollback(added)
		}
		added = append(added, [2]topo.ChannelID{u, v})
	}
	g.added = added[:0]
	return true
}

// rollback removes the edges AddPath added for the path it refuses, and
// returns false.
func (g *CDG) rollback(added [][2]topo.ChannelID) bool {
	for _, e := range added {
		g.removeEdge(e[0], e[1])
	}
	g.added = added[:0]
	return false
}

// refuses reports whether u->v is a recorded refusal.
func (g *CDG) refuses(u, v topo.ChannelID) bool {
	return int(u) < len(g.refused) && slices.Contains(g.refused[u], v)
}

// refuse records u->v, which the committed edges alone refused. The record
// is allocated on the first refusal, so a lane that refuses no path never
// pays for it.
func (g *CDG) refuse(u, v topo.ChannelID) {
	if g.refused == nil {
		g.refused = make([][]topo.ChannelID, len(g.ord))
	}
	for int(u) >= len(g.refused) { // a self-loop is refused before u is a node
		g.refused = append(g.refused, nil)
	}
	g.refused[u] = append(g.refused[u], v)
}

func (g *CDG) removeEdge(u, v topo.ChannelID) {
	g.succ[u] = removeChan(g.succ[u], v)
	g.pred[v] = removeChan(g.pred[v], u)
}

// removeChan deletes the first occurrence of c, preserving list order so
// traversals stay deterministic across removals.
func removeChan(s []topo.ChannelID, c topo.ChannelID) []topo.ChannelID {
	for i, m := range s {
		if m == c {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// CanReach reports whether v is reachable from u along dependency edges.
// Adding edge v->u is safe (keeps the graph acyclic) iff u does not reach
// v; DeadlockMargin uses this to measure cycle slack. The maintained
// topological order prunes the search: successors always carry higher
// order, so nodes at or beyond ord[v] cannot lead back to it.
func (g *CDG) CanReach(u, v topo.ChannelID) bool {
	if u == v {
		return true
	}
	if int(u) >= len(g.ord) || g.ord[u] < 0 {
		return false
	}
	if int(v) >= len(g.ord) || g.ord[v] < 0 || g.ord[u] >= g.ord[v] {
		return false
	}
	ov := g.ord[v]
	g.epoch++
	g.seen[u] = g.epoch
	g.stack = append(g.stack[:0], u)
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for _, m := range g.succ[n] {
			if m == v {
				return true
			}
			if g.ord[m] < ov && g.seen[m] != g.epoch {
				g.seen[m] = g.epoch
				g.stack = append(g.stack, m)
			}
		}
	}
	return false
}

// SwitchChannelPred returns a predicate selecting switch-to-switch channels
// of g.
func SwitchChannelPred(g *topo.Graph) func(topo.ChannelID) bool {
	return func(c topo.ChannelID) bool {
		l := g.Link(c)
		return g.Nodes[l.A].Kind == topo.Switch && g.Nodes[l.B].Kind == topo.Switch
	}
}

// AssignLayers distributes paths over virtual lanes so that each lane's CDG
// is acyclic — the DFSSSP scheme. paths may contain nil entries (skipped);
// only their switch-to-switch channels take part. assign is called with the
// path index and the chosen lane. It returns the number of lanes used, or
// an error-index >= 0 of the first path that could not be placed within
// maxVL lanes (-1 on success).
func AssignLayers(g *topo.Graph, paths [][]topo.ChannelID, maxVL int, assign func(i, vl int)) (lanes int, failed int) {
	l := newLayering(g, maxVL)
	isSwitch := SwitchChannelPred(g)
	var span []topo.ChannelID
	for i, p := range paths {
		if p == nil {
			continue
		}
		span = span[:0]
		for _, c := range p {
			if isSwitch(c) {
				span = append(span, c)
			}
		}
		vl := l.place(span)
		if vl < 0 {
			return len(l.lanes), i
		}
		assign(i, vl)
	}
	return len(l.lanes), -1
}

// layering is AssignLayers one path at a time: each path joins the lowest
// lane whose CDG stays acyclic with it, and a new lane opens while fewer
// than maxVL exist.
type layering struct {
	lanes           []*CDG
	maxVL, channels int
}

func newLayering(g *topo.Graph, maxVL int) *layering {
	channels := 2 * len(g.Links)
	return &layering{lanes: []*CDG{newCDG(channels)}, maxVL: maxVL, channels: channels}
}

// place returns the lane the path with switch channels span joins, or -1
// when no lane within maxVL can take it.
func (l *layering) place(span []topo.ChannelID) int {
	for vl, lane := range l.lanes {
		if lane.AddPath(span) {
			return vl
		}
	}
	if len(l.lanes) >= l.maxVL {
		return -1
	}
	l.lanes = append(l.lanes, newCDG(l.channels))
	if !l.lanes[len(l.lanes)-1].AddPath(span) {
		// A single path can never self-deadlock unless it repeats
		// channels; treat as failure.
		return -1
	}
	return len(l.lanes) - 1
}

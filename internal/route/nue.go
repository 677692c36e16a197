package route

import (
	"fmt"
	"sort"

	"github.com/hpcsim/t2hx/internal/topo"
)

// Nue implements a Nue-style routing engine (after Domke, Hoefler,
// Matsuoka, HPDC'16): destination-based paths computed *inside* the
// channel dependency graph, so deadlock freedom holds by construction for
// a FIXED number of virtual lanes — even a single one — instead of
// splitting a precomputed path set like DFSSSP/LASH do.
//
// Destinations are partitioned round-robin across the nVL layers; within
// a layer, each destination's next-hop tree is grown from the destination
// switch outward, and a switch may only adopt a parent whose channel
// dependency can be inserted into the layer's CDG without closing a
// cycle. Minimal parents are preferred; when every minimal parent is
// blocked, already-routed detour parents are considered (the escape-path
// idea of Nue, simplified). This is a faithful-in-spirit, simplified
// reimplementation — the published Nue additionally guarantees
// completeness via a convex escape subgraph; ours reports an error in the
// (rare, at our scales) case the greedy growth cannot reach a switch.
func Nue(g *topo.Graph, lmc uint8, nVL int) (*Tables, error) {
	if nVL < 1 {
		return nil, fmt.Errorf("route: Nue needs >= 1 virtual lane")
	}
	t, err := newTables(g, "nue", lmc, nil)
	if err != nil {
		return nil, err
	}
	span := 1 << t.LMC
	terms := g.Terminals()
	layers := make([]*CDG, nVL)
	for i := range layers {
		layers[i] = NewCDG()
	}
	for di, dst := range terms {
		vl := di % nVL
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			// Detached terminal: leave its LIDs unprogrammed (reported as
			// unreachable by Validate) rather than failing the sweep.
			continue
		}
		next, err := nueTree(g, dstSw, layers[vl])
		if err != nil {
			return nil, fmt.Errorf("route: nue toward %s (VL %d): %w", g.Nodes[dst].Label, vl, err)
		}
		for off := 0; off < span; off++ {
			lid := t.BaseLID[di] + LID(off)
			for sw, c := range next {
				t.SetNextHop(sw, lid, c)
			}
			for _, l := range g.Nodes[dst].Ports {
				if l != nil && !l.Down && l.Other(dst) == dstSw {
					t.SetNextHop(dstSw, lid, l.Channel(dstSw))
				}
			}
		}
		// Record the SL for every source toward this destination.
		for _, src := range terms {
			if src == dst {
				continue
			}
			for off := 0; off < span; off++ {
				t.SetSL(src, t.BaseLID[di]+LID(off), uint8(vl))
			}
		}
	}
	t.NumVL = nVL
	t.Freeze()
	return t, nil
}

// nueTree grows the destination-rooted next-hop tree under the CDG
// constraint and returns switch -> out-channel.
func nueTree(g *topo.Graph, root topo.NodeID, cdg *CDG) (map[topo.NodeID]topo.ChannelID, error) {
	dist := topo.HopDistances(g, root)
	next := make(map[topo.NodeID]topo.ChannelID, g.NumSwitches())
	// Process switches by increasing hop distance (deterministic order).
	order := append([]topo.NodeID{}, g.Switches()...)
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if dist[a] != dist[b] {
			return dist[a] < dist[b]
		}
		return a < b
	})
	var pending []topo.NodeID
	for _, u := range order {
		if u == root {
			continue
		}
		if dist[u] < 0 {
			return nil, fmt.Errorf("switch %s unreachable", g.Nodes[u].Label)
		}
		if !nueAdopt(g, u, root, dist, next, cdg, true) {
			pending = append(pending, u)
		}
	}
	// Second chance: switches whose minimal parents were all blocked may
	// now adopt detour parents routed meanwhile.
	for _, u := range pending {
		if nueAdopt(g, u, root, dist, next, cdg, false) {
			continue
		}
		return nil, fmt.Errorf("no cycle-free parent for switch %s", g.Nodes[u].Label)
	}
	return next, nil
}

// nueAdopt tries to give u a parent. minimalOnly restricts candidates to
// strictly-closer neighbors; otherwise any already-routed neighbor whose
// forwarding chain avoids u qualifies (a detour).
func nueAdopt(g *topo.Graph, u, root topo.NodeID, dist []int,
	next map[topo.NodeID]topo.ChannelID, cdg *CDG, minimalOnly bool) bool {

	type cand struct {
		v topo.NodeID
		c topo.ChannelID
	}
	var minimal, detour []cand
	for _, l := range g.UpLinks(u) {
		v := l.Other(u)
		if g.Nodes[v].Kind != topo.Switch {
			continue
		}
		ch := l.Channel(u)
		switch {
		case dist[v] == dist[u]-1:
			minimal = append(minimal, cand{v, ch})
		case !minimalOnly && chainAvoids(g, next, v, u, root):
			detour = append(detour, cand{v, ch})
		}
	}
	try := func(cs []cand) bool {
		sort.Slice(cs, func(i, j int) bool { return cs[i].c < cs[j].c })
		for _, cd := range cs {
			// Adopting v adds the dependency from cd.c to the channel v
			// forwards on; the root forwards to the terminal, which adds
			// none. An unrouted v has no channel yet, so the dependency
			// could not be checked: skip it.
			if cd.v != root {
				dep, routed := next[cd.v]
				if !routed {
					continue
				}
				if !cdg.AddEdge(cd.c, dep) {
					continue // would close a dependency cycle
				}
			}
			next[u] = cd.c
			return true
		}
		return false
	}
	if try(minimal) {
		return true
	}
	if minimalOnly {
		return false
	}
	return try(detour)
}

// chainAvoids reports whether v is routed and its forwarding chain to root
// does not pass through u (so adopting v cannot create a forwarding
// loop).
func chainAvoids(g *topo.Graph, next map[topo.NodeID]topo.ChannelID, v, u, root topo.NodeID) bool {
	cur := v
	for hops := 0; hops <= MaxHops; hops++ {
		if cur == u {
			return false
		}
		if cur == root {
			return true
		}
		c, ok := next[cur]
		if !ok {
			return false
		}
		cur = g.ChannelTo(c)
	}
	return false
}

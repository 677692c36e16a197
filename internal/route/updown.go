package route

import (
	"fmt"
	"sort"

	"github.com/hpcsim/t2hx/internal/topo"
)

// UpDown implements Up*/Down* routing (Autonet, Schroeder et al.): switches
// are ranked by BFS distance from a root, every link gets an up/down
// orientation, and each packet follows a valley-free path — zero or more up
// hops followed by zero or more down hops. Valley-freedom makes the channel
// dependency graph acyclic on a single virtual lane, so Up*/Down* is
// deadlock-free on any topology; the price is non-minimal paths and a hot
// root. The paper cites it as the classic topology-agnostic deadlock-free
// option next to DFSSSP, LASH and Nue.
func UpDown(g *topo.Graph, lmc uint8) (*Tables, error) {
	t, err := newTables(g, "updown", lmc, nil)
	if err != nil {
		return nil, err
	}
	switches := g.Switches()
	if len(switches) == 0 {
		return nil, fmt.Errorf("route: no switches")
	}

	// Root: the switch with the highest live degree (deterministic tie by
	// ID), the usual OpenSM heuristic.
	root := switches[0]
	best := -1
	for _, s := range switches {
		d := len(g.UpLinks(s))
		if d > best {
			best = d
			root = s
		}
	}
	dist := topo.HopDistances(g, root)
	for _, s := range switches {
		if dist[s] < 0 {
			return nil, fmt.Errorf("route: switch fabric disconnected at %s", g.Nodes[s].Label)
		}
	}
	// rank orders switches: root first; "up" = toward smaller rank. Stored
	// flat by the graph's dense switch index.
	nsw := len(switches)
	rank := make([]int, nsw)
	ordered := append([]topo.NodeID{}, switches...)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if dist[a] != dist[b] {
			return dist[a] < dist[b]
		}
		return a < b
	})
	for i, s := range ordered {
		rank[g.SwitchIndex(s)] = i
	}

	// Flat per-destination scratch, reset between destinations; -1 cost
	// sentinels mark not-yet-routed switches.
	dDown := make([]int, nsw)
	downNext := make([]topo.ChannelID, nsw)
	cost := make([]int, nsw)
	next := make([]topo.ChannelID, nsw)

	span := 1 << lmc
	terms := g.Terminals()
	for di, dst := range terms {
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			// Detached terminal: leave its LIDs unprogrammed (reported as
			// unreachable by Validate) rather than failing the sweep.
			continue
		}
		for i := 0; i < nsw; i++ {
			dDown[i], downNext[i] = -1, NoChannel
			cost[i], next[i] = -1, NoChannel
		}
		// Phase 1 — pure descent (rank strictly increasing toward dst):
		// process in decreasing rank, computing dDown where possible.
		dDown[g.SwitchIndex(dstSw)] = 0
		for i := len(ordered) - 1; i >= 0; i-- {
			s := ordered[i]
			if s == dstSw {
				continue
			}
			si := g.SwitchIndex(s)
			best := -1
			var bestC topo.ChannelID
			for _, l := range g.UpLinks(s) {
				o := l.Other(s)
				oi := g.SwitchIndex(o)
				if oi < 0 || rank[oi] <= rank[si] {
					continue // only "down" edges (rank increases)
				}
				if d := dDown[oi]; d >= 0 && (best < 0 || d+1 < best) {
					best = d + 1
					bestC = l.Channel(s)
				}
			}
			if best >= 0 {
				dDown[si] = best
				downNext[si] = bestC
			}
		}
		// Phase 2 — ascent: switches without a descent route go up toward
		// the cheapest already-routed lower-rank switch; process in
		// increasing rank so dependencies resolve.
		for _, s := range ordered {
			si := g.SwitchIndex(s)
			if d := dDown[si]; d >= 0 {
				cost[si] = d
				if s != dstSw {
					next[si] = downNext[si]
				}
				continue
			}
			best := -1
			var bestC topo.ChannelID
			for _, l := range g.UpLinks(s) {
				o := l.Other(s)
				oi := g.SwitchIndex(o)
				if oi < 0 || rank[oi] >= rank[si] {
					continue // only "up" edges
				}
				if c := cost[oi]; c >= 0 && (best < 0 || c+1 < best) {
					best = c + 1
					bestC = l.Channel(s)
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("route: updown cannot reach %s from %s",
					g.Nodes[dst].Label, g.Nodes[s].Label)
			}
			cost[si] = best
			next[si] = bestC
		}

		for off := 0; off < span; off++ {
			lid := t.BaseLID[di] + LID(off)
			for si, c := range next {
				if c != NoChannel {
					t.SetNextHop(switches[si], lid, c)
				}
			}
			for _, l := range g.Nodes[dst].Ports {
				if l != nil && !l.Down && l.Other(dst) == dstSw {
					t.SetNextHop(dstSw, lid, l.Channel(dstSw))
				}
			}
		}
	}
	t.Freeze()
	return t, nil
}

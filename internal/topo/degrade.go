package topo

import (
	"errors"
	"fmt"

	"github.com/hpcsim/t2hx/internal/sim"
)

// ErrDegradeShortfall reports that fewer switch links than requested can
// fail without disconnecting the switch fabric.
var ErrDegradeShortfall = errors.New("degradation shortfall")

// DegradeSwitchLinks marks n randomly chosen switch-to-switch links as Down,
// modelling the broken/absent AOCs of the paper's deployment (Sec. 2.3).
// The links are the chain DegradeChain picks from sim.NewRand(seed), so
// terminal links are never degraded (a node with a broken HCA cable was
// simply replaced on the real system) and the switch fabric stays
// connected.
//
// Contract: the returned slice holds the links actually taken down, which
// may be fewer than n when connectivity vetoes candidates. In that case the
// error wraps ErrDegradeShortfall; callers that merely want "as degraded as
// possible" may ignore it, but anything reproducing an exact broken-cable
// count must check it.
func DegradeSwitchLinks(g *Graph, n int, seed uint64) ([]*Link, error) {
	chain, err := DegradeChain(g, n, sim.NewRand(seed))
	downed := make([]*Link, len(chain))
	for i, id := range chain {
		downed[i] = g.Links[id]
		downed[i].Down = true
	}
	return downed, err
}

// DegradeChain is the one failure planner: it shuffles the live
// switch-to-switch links with rng and keeps each link whose loss, on top of
// the links kept before it, leaves the switch fabric connected, until n are
// kept. The paper planes' broken cables (DegradeSwitchLinks), runtime
// failure plans (faults.PlanLinkFailures) and degraded survival sweeps
// (exp.RunDegraded) all draw their links here.
//
// The chain keeps the fabric connected at EVERY prefix: the first f links
// are a valid f-failure variant for any f <= n, because removing a subset
// of a connectivity-preserving down set leaves a supergraph of a connected
// graph. Degraded sweeps replay prefixes of one chain per variant on this
// property.
//
// The graph is only probed and is left as it was. rng is consumed by one
// Shuffle, so callers may keep drawing from it. A shortfall (connectivity
// vetoed too many candidates) returns the partial chain and an error
// wrapping ErrDegradeShortfall; a fabric that starts disconnected keeps
// no link at all.
//
// Each candidate (u, v) is probed by a search from u that stops at v:
// taking one link out of a connected fabric disconnects it exactly when
// its ends no longer reach each other. That needs a connected start,
// which one whole-fabric search checks up front.
func DegradeChain(g *Graph, n int, rng *sim.Rand) ([]LinkID, error) {
	candidates := g.LiveSwitchLinks()
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if !SwitchFabricConnected(g) {
		candidates = nil
	}
	var chain []LinkID
	dist := make([]int, len(g.Nodes))
	for _, l := range candidates {
		if len(chain) == n {
			break
		}
		l.Down = true
		if hopBFS(g, l.A, l.B, dist); dist[l.B] >= 0 {
			chain = append(chain, l.ID)
		} else {
			l.Down = false
		}
	}
	for _, id := range chain {
		g.Links[id].Down = false
	}
	if len(chain) < n {
		return chain, fmt.Errorf("topo: %w: %d of %d requested switch links can fail without disconnecting the switch fabric",
			ErrDegradeShortfall, len(chain), n)
	}
	return chain, nil
}

// SwitchFabricConnected reports whether all switches remain mutually
// reachable over live links — the invariant every failure plan preserves.
func SwitchFabricConnected(g *Graph) bool {
	switches := g.Switches()
	if len(switches) == 0 {
		return true
	}
	reached, _ := hopBFS(g, switches[0], -1, make([]int, len(g.Nodes)))
	return reached == len(switches)
}

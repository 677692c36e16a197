// Package faults injects runtime link failures into a running simulation
// and models the InfiniBand subnet manager's recovery loop: detect the
// change after a trap/sweep delay, recompute the routing tables
// with the active engine on the degraded graph, revalidate loop- and
// deadlock-freedom, and atomically swap the re-programmed LFTs into the
// fabric. The paper's deployment ran on exactly such degraded fabrics (15
// broken AOCs in the HyperX plane, 197 in the Fat-Tree, Sec. 2.3); this
// package lets those cables break *while* a workload is running instead of
// only at build time.
package faults

import (
	"fmt"
	"sort"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// Kind enumerates fault-event types.
type Kind uint8

const (
	// LinkDown fails one link (an AOC getting pulled or going dark).
	LinkDown Kind = iota
	// LinkUp repairs a previously failed link.
	LinkUp
)

func (k Kind) String() string {
	if k == LinkDown {
		return "link-down"
	}
	return "link-up"
}

// Event is one scheduled fabric fault at a simulated time.
type Event struct {
	At   sim.Time
	Kind Kind
	// Link is the link that fails or is repaired.
	Link topo.LinkID
}

func (e Event) String() string {
	return fmt.Sprintf("%v@%.6fs link=%d", e.Kind, float64(e.At), e.Link)
}

// Schedule is a fault timeline.
type Schedule []Event

// Sorted returns a time-ordered copy (stable for equal times, so
// construction order breaks ties deterministically).
func (s Schedule) Sorted() Schedule {
	out := append(Schedule{}, s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// PlanLinkFailures picks n switch-to-switch links that can all fail at
// runtime without ever disconnecting the switch fabric (terminal links are
// never chosen), and spreads the failures uniformly at random over
// [start, start+window). The links are topo.DegradeChain's pick from the
// seed, so on a pristine graph they are exactly the links
// topo.DegradeSwitchLinks would degrade with the same seed; the failure
// times are drawn from the same generator afterwards. The graph is only
// probed, never left modified.
//
// Because the surviving set is connected with every chosen link down, it
// stays connected under any prefix of the schedule, whatever order the
// failures fire in. A shortfall (connectivity vetoed too many candidates)
// returns the partial schedule plus an error wrapping
// topo.ErrDegradeShortfall.
func PlanLinkFailures(g *topo.Graph, n int, start sim.Time, window sim.Duration, seed uint64) (Schedule, error) {
	rng := sim.NewRand(seed)
	chain, err := topo.DegradeChain(g, n, rng)
	times := make([]float64, len(chain))
	for i := range times {
		times[i] = rng.Float64()
	}
	sort.Float64s(times)
	sched := make(Schedule, 0, len(chain))
	for i, id := range chain {
		sched = append(sched, Event{
			At:   start + sim.Time(times[i])*window,
			Kind: LinkDown,
			Link: id,
		})
	}
	return sched, err
}

// PlaneOutage fails every live switch-to-switch link of a plane at the
// given time — the whole-plane power or SM loss a dual-rail machine like
// TSUBAME2 is built to survive. Unlike PlanLinkFailures there is no
// connectivity veto: the plane's switch fabric is meant to shatter, and
// traffic must fail over to a sibling plane (fabric.MultiFabric with a
// Failover policy). Terminal links stay up. repair > 0 schedules the
// matching LinkUp wave.
func PlaneOutage(g *topo.Graph, at sim.Time, repair sim.Duration) Schedule {
	var sched Schedule
	for _, l := range g.LiveSwitchLinks() {
		sched = append(sched, Event{At: at, Kind: LinkDown, Link: l.ID})
		if repair > 0 {
			sched = append(sched, Event{At: at + repair, Kind: LinkUp, Link: l.ID})
		}
	}
	return sched.Sorted()
}

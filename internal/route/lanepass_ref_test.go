package route

import (
	"errors"
	"fmt"

	"github.com/hpcsim/t2hx/internal/topo"
)

// The lane pass before the refusal record, kept as the reference the
// equivalence tests and FuzzLanePass compare against. refAddPath is
// CDG.AddPath as it was: it filters a whole path through a switch-channel
// predicate and runs the Pearce-Kelly insert on every dependency it meets,
// remembering nothing a lane refused, over the reference insert (refCDG).
// refLayering is first-fit layering over it, and refAssignLanes the lane
// pass over that layering.

// refAddPath inserts the dependencies between consecutive switch channels
// of path into g, rolling back the edges it added if one of them would
// close a cycle. It returns false on cycle.
func refAddPath(g *refCDG, path []topo.ChannelID, isSwitch func(topo.ChannelID) bool) bool {
	var fabric []topo.ChannelID
	for _, c := range path {
		if isSwitch(c) {
			fabric = append(fabric, c)
		}
	}
	var added [][2]topo.ChannelID
	for i := 0; i+1 < len(fabric); i++ {
		u, v := fabric[i], fabric[i+1]
		if g.hasEdge(u, v) {
			continue
		}
		if !g.addEdge(u, v) {
			for _, e := range added {
				g.removeEdge(e[0], e[1])
			}
			return false
		}
		added = append(added, [2]topo.ChannelID{u, v})
	}
	return true
}

// refLayering places each path on the lowest lane whose CDG stays acyclic
// with it, opening a new lane while fewer than maxVL exist.
type refLayering struct {
	lanes    []*refCDG
	maxVL    int
	isSwitch func(topo.ChannelID) bool
}

func newRefLayering(g *topo.Graph, maxVL int) *refLayering {
	return &refLayering{lanes: []*refCDG{{}}, maxVL: maxVL, isSwitch: SwitchChannelPred(g)}
}

// orders lists each lane's topological order.
func (l *refLayering) orders() [][]int32 {
	ords := make([][]int32, len(l.lanes))
	for vl, lane := range l.lanes {
		ords[vl] = lane.ord
	}
	return ords
}

// place returns the lane path joins, or -1 when no lane within maxVL can
// take it.
func (l *refLayering) place(path []topo.ChannelID) int {
	for vl, lane := range l.lanes {
		if refAddPath(lane, path, l.isSwitch) {
			return vl
		}
	}
	if len(l.lanes) >= l.maxVL {
		return -1
	}
	l.lanes = append(l.lanes, &refCDG{})
	if !refAddPath(l.lanes[len(l.lanes)-1], path, l.isSwitch) {
		return -1
	}
	return len(l.lanes) - 1
}

// refAssignLanes is assignLanes over refLayering, offering each key's
// whole path. It serves tables whose every path is placed: the first Path
// error the pass does not skip, or the first path no lane takes, ends it
// with an error that numbers no path.
func refAssignLanes(t *Tables, maxVL int, tolerant bool) error {
	w := newKeyWalk(t, 1<<t.LMC, true)
	lay := newRefLayering(t.G, maxVL)
	var err error
	w.each(func(k *pathKey) {
		if err != nil {
			return
		}
		if k.err != nil {
			if !tolerant || !errors.Is(k.err, ErrNoRoute) {
				err = k.err
			}
			return
		}
		vl := lay.place(k.path)
		if vl < 0 {
			err = fmt.Errorf("route: %s needs more than %d virtual lanes", t.Engine, maxVL)
			return
		}
		if vl > 0 {
			for _, src := range k.srcs {
				if src != k.dstNode {
					t.SetSL(src, k.lid, uint8(vl))
				}
			}
		}
	})
	if err != nil {
		return err
	}
	t.NumVL = len(lay.lanes)
	t.laneRank = lay.orders()
	return nil
}

package route

import "github.com/hpcsim/t2hx/internal/topo"

// AssignLanesTolerant is the lane pass of HXMin and HXNonMin, for the
// equivalence tests of the external test package.
func AssignLanesTolerant(t *Tables, maxVL int) error { return assignLanes(t, maxVL, true) }

// WithoutLanes returns a mutable deep copy of t with no SL assigned and no
// lane certificate, so a lane pass can run again on an engine's forwarding
// tables.
func (t *Tables) WithoutLanes() *Tables {
	c := t.MutableClone()
	c.sl, c.NumVL, c.laneRank = nil, 0, nil
	return c
}

// LaneRanks returns t's lane certificate (Tables.laneRank), nil when the
// engine keeps none.
func (t *Tables) LaneRanks() [][]int32 { return t.laneRank }

// WithLaneRanks returns a mutable deep copy of t carrying the lane
// certificate ranks; nil ranks make Validate build the lanes' CDGs.
func (t *Tables) WithLaneRanks(ranks [][]int32) *Tables {
	c := t.MutableClone()
	c.laneRank = ranks
	return c
}

// MutableClone deep-copies the LFT and SL state into fresh unfrozen tables
// bound to the same graph. It lets tests corrupt routing state without
// tripping the freeze guard or poisoning a cached original. The lane
// certificate is shared, read-only: Validate checks it against the
// clone's own paths.
func (t *Tables) MutableClone() *Tables {
	nt := *t
	nt.frozen = false
	nt.lft = make([][]topo.ChannelID, len(t.lft))
	for i, row := range t.lft {
		nt.lft[i] = append([]topo.ChannelID(nil), row...)
	}
	if t.sl != nil {
		nt.sl = append([]uint8(nil), t.sl...)
	}
	return &nt
}

// ChannelLoads returns the per-channel path counts for base-LID routing —
// the static oversubscription map behind Fig. 1's bottleneck analysis —
// folded up each base LID's forwarding tree.
func ChannelLoads(t *Tables) []int {
	load := make([]int, 2*len(t.G.Links))
	tr := newLIDTrees(t)
	for di := range t.BaseLID {
		tr.resolve(di, 0)
		tr.fold(load)
	}
	return load
}

// Edges reports the number of dependency edges.
func (g *CDG) Edges() int {
	n := 0
	for _, c := range g.at {
		n += len(g.succ[c])
	}
	return n
}

// Acyclic exhaustively re-verifies acyclicity, which the incremental
// structure maintains by construction.
func (g *CDG) Acyclic() bool {
	const (
		white = int8(0)
		gray  = int8(1)
		black = int8(2)
	)
	color := make([]int8, len(g.ord))
	var visit func(c topo.ChannelID) bool
	visit = func(c topo.ChannelID) bool {
		color[c] = gray
		for _, m := range g.succ[c] {
			switch color[m] {
			case gray:
				return false
			case white:
				if !visit(m) {
					return false
				}
			}
		}
		color[c] = black
		return true
	}
	for _, c := range g.at {
		if color[c] == white {
			if !visit(c) {
				return false
			}
		}
	}
	return true
}

// SwitchHops returns the number of switch-to-switch hops of a path returned
// by Path (total channels minus injection and delivery).
func SwitchHops(path []topo.ChannelID) int {
	if len(path) < 2 {
		return 0
	}
	return len(path) - 2
}

// ValidateProof is Validate, also reporting whether the lane certificate
// alone proved the lanes acyclic, with no CDG built.
func ValidateProof(t *Tables) (Report, bool, error) { return validate(t) }

// The engines before the live-link index (scan_ref_test.go), for the
// equivalence tests of the external test package.
var (
	RefHXMin    = refHXMin
	RefHXNonMin = refHXNonMin
	RefSSSP     = refSSSP
	RefDFSSSP   = refDFSSSP
	RefLASH     = refLASH
	RefSSSPCore = refSSSPCore
)

// RefFTree is FTree before it computed each leaf's descent and costs once
// (ftree_ref_test.go).
var RefFTree = refFTree

// RefAssignLanes is the lane pass over the layering before the refusal
// record (lanepass_ref_test.go), for the equivalence tests of the external
// test package.
var RefAssignLanes = refAssignLanes

// LayerSpans places each span, the switch channels of a path of g, with
// the lane pass's layering, and RefLayerPaths each whole path with the
// reference layering over the reference insert (refCDG). Both return the
// lane of each path, -1 where no lane within maxVL takes it, and each
// lane's topological order.
func LayerSpans(g *topo.Graph, spans [][]topo.ChannelID, maxVL int) ([]int, [][]int32) {
	l := newLayering(g, maxVL)
	vls := make([]int, len(spans))
	for i, s := range spans {
		vls[i] = l.place(s)
	}
	ords := make([][]int32, len(l.lanes))
	for vl, lane := range l.lanes {
		ords[vl] = lane.ord
	}
	return vls, ords
}

func RefLayerPaths(g *topo.Graph, paths [][]topo.ChannelID, maxVL int) ([]int, [][]int32) {
	l := newRefLayering(g, maxVL)
	vls := make([]int, len(paths))
	for i, p := range paths {
		vls[i] = l.place(p)
	}
	return vls, l.orders()
}

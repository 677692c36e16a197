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

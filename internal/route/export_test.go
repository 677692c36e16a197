package route

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

package route

// AssignLanesTolerant is the lane pass of HXMin and HXNonMin, for the
// equivalence tests of the external test package.
func AssignLanesTolerant(t *Tables, maxVL int) error { return assignLanes(t, maxVL, true) }

// WithoutLanes returns a mutable deep copy of t with no SL assigned, so a
// lane pass can run again on an engine's forwarding tables.
func (t *Tables) WithoutLanes() *Tables {
	c := t.MutableClone()
	c.sl, c.NumVL = nil, 0
	return c
}

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

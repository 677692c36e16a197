// Package core implements PARX — Pattern-Aware Routing for 2-D HyperX
// topologies — the primary contribution of Domke et al. (SC '19, Sec. 3.2).
//
// PARX abuses InfiniBand's LMC multi-LID feature to give every node pair a
// concurrent choice between minimal and non-minimal static routes: each HCA
// port is assigned 4 LIDs (LMC=2), and while computing the forwarding
// tables toward LID_i the engine virtually removes all links inside one
// half of the HyperX (rules R1-R4), forcing detours for some quadrant
// combinations and guaranteeing minimal paths for others. The MPI layer
// then picks the destination LID by message size (Table 1): small messages
// take minimal paths for latency, large messages take the detour paths to
// spread load over the additional dimension-links. Route computation is
// communication-demand aware (SAR-style), and a final DFSSSP-style
// virtual-lane assignment makes the whole path set deadlock-free.
package core

import "fmt"

// Quadrant identifies one quarter of an even-dimension 2-D HyperX
// (Sec. 3.2.1, Fig. 3). The geometry follows from Table 1's minimal-path
// entries: Q0 is left-top, Q1 left-bottom, Q2 right-bottom, Q3 right-top.
type Quadrant uint8

const (
	Q0 Quadrant = iota // left, top
	Q1                 // left, bottom
	Q2                 // right, bottom
	Q3                 // right, top
)

func (q Quadrant) String() string { return fmt.Sprintf("Q%d", uint8(q)) }

// QuadrantOf maps 2-D switch coordinates to their quadrant given the
// lattice shape.
func QuadrantOf(coord []int, shape []int) Quadrant {
	left := coord[0] < shape[0]/2
	top := coord[1] < shape[1]/2
	switch {
	case left && top:
		return Q0
	case left:
		return Q1
	case !left && !top:
		return Q2
	default:
		return Q3
	}
}

// Half identifies the region whose internal links rule R1-R4 removes while
// routing toward one of the four destination LIDs.
type Half uint8

const (
	LeftHalf Half = iota
	RightHalf
	TopHalf
	BottomHalf
)

func (h Half) String() string {
	switch h {
	case LeftHalf:
		return "left"
	case RightHalf:
		return "right"
	case TopHalf:
		return "top"
	default:
		return "bottom"
	}
}

// RuleFor returns the half removed when routing toward LID offset x
// (Sec. 3.2.1): R1: LID0 -> left, R2: LID1 -> right, R3: LID2 -> top,
// R4: LID3 -> bottom.
func RuleFor(lidOffset uint8) Half {
	switch lidOffset {
	case 0:
		return LeftHalf
	case 1:
		return RightHalf
	case 2:
		return TopHalf
	case 3:
		return BottomHalf
	}
	panic("core: PARX uses exactly 4 LIDs per port (LMC=2)")
}

// InHalf reports whether 2-D coordinates lie inside the half.
func InHalf(coord []int, shape []int, h Half) bool {
	switch h {
	case LeftHalf:
		return coord[0] < shape[0]/2
	case RightHalf:
		return coord[0] >= shape[0]/2
	case TopHalf:
		return coord[1] < shape[1]/2
	default:
		return coord[1] >= shape[1]/2
	}
}

// lidTableSmall is Table 1a: the valid destination-LID offsets x for small
// messages, indexed [src quadrant][dst quadrant]. Where two choices exist
// the PML picks one at random (Sec. 3.2.4).
var lidTableSmall = [4][4][]uint8{
	Q0: {Q0: {1, 3}, Q1: {1}, Q2: {0, 2}, Q3: {3}},
	Q1: {Q0: {1}, Q1: {1, 2}, Q2: {2}, Q3: {0, 3}},
	Q2: {Q0: {1, 3}, Q1: {2}, Q2: {0, 2}, Q3: {0}},
	Q3: {Q0: {3}, Q1: {1, 2}, Q2: {0}, Q3: {0, 3}},
}

// lidTableLarge is Table 1b: the offsets for large messages, forcing
// non-minimal detours where possible.
var lidTableLarge = [4][4][]uint8{
	Q0: {Q0: {0, 2}, Q1: {0}, Q2: {0, 2}, Q3: {2}},
	Q1: {Q0: {0}, Q1: {0, 3}, Q2: {3}, Q3: {0, 3}},
	Q2: {Q0: {1, 3}, Q1: {3}, Q2: {1, 3}, Q3: {1}},
	Q3: {Q0: {2}, Q1: {1, 2}, Q2: {1}, Q3: {1, 2}},
}

// LIDChoices returns the valid destination-LID offsets per Table 1.
func LIDChoices(src, dst Quadrant, large bool) []uint8 {
	if large {
		return lidTableLarge[src][dst]
	}
	return lidTableSmall[src][dst]
}

package core

import "github.com/hpcsim/t2hx/internal/route"

// Left reports whether the quadrant lies in the left half (dimension 0).
func (q Quadrant) Left() bool { return q == Q0 || q == Q1 }

// Top reports whether the quadrant lies in the top half (dimension 1).
func (q Quadrant) Top() bool { return q == Q0 || q == Q3 }

// QuadrantOfLID recovers the quadrant from a PARX LID, the way the modified
// bfo PML does on the real system: q := floor(LID/1000) (footnote 9).
func QuadrantOfLID(lid route.LID) Quadrant {
	return Quadrant(int(lid) / QuadrantBlock % 4)
}

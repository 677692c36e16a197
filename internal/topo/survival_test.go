package topo

import "testing"

func TestHyperXDimSurvivalHealthy(t *testing.T) {
	hx := small2DHyperX() // 4x4: each dim has 4 lines of C(4,2)=6 pairs
	for _, s := range HyperXDimSurvival(hx) {
		if s.Pairs != 24 {
			t.Errorf("dim %d: %d pairs, want 24", s.Dim, s.Pairs)
		}
		if s.Direct != s.Pairs || s.Escape != 0 || s.Stranded != 0 {
			t.Errorf("dim %d: healthy census %+v", s.Dim, s)
		}
	}
}

func TestHyperXDimSurvivalDegraded(t *testing.T) {
	hx := small2DHyperX()
	// Kill the direct link between (0,1) and (0,2): dimension 1, one line.
	a, b := hx.SwitchAt(0, 1), hx.SwitchAt(0, 2)
	for _, l := range hx.Nodes[a].Ports {
		if l != nil && l.Other(a) == b {
			l.Down = true
		}
	}
	surv := HyperXDimSurvival(hx)
	if s := surv[0]; s.Direct != s.Pairs {
		t.Errorf("dim 0 should be untouched: %+v", s)
	}
	s := surv[1]
	if s.Direct != 23 || s.Escape != 1 || s.Stranded != 0 {
		t.Errorf("dim 1 census %+v, want 23 direct / 1 escape", s)
	}
	// The detour (0,1)-(0,0)-(0,2) uses intermediate coordinate 0 < min(1,2),
	// so it satisfies the restricted-escape rule.
	if s.Restricted != 1 {
		t.Errorf("dim 1 restricted %d, want 1", s.Restricted)
	}

	// Also kill (0,0)-(0,1): now 0-1 pair must detour through 2 or 3 (not
	// restricted), and 1-2 loses its restricted detour through 0 but keeps
	// an unrestricted one through 3.
	for _, l := range hx.Nodes[a].Ports {
		if l != nil && l.Other(a) == hx.SwitchAt(0, 0) {
			l.Down = true
		}
	}
	s = HyperXDimSurvival(hx)[1]
	if s.Direct != 22 || s.Escape != 2 || s.Restricted != 0 || s.Stranded != 0 {
		t.Errorf("dim 1 census after second failure %+v, want 22/2/0/0", s)
	}
}

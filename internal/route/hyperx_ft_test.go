package route

import (
	"errors"
	"testing"

	"github.com/hpcsim/t2hx/internal/topo"
)

// On a healthy HyperX, hxmin must be exactly dimension-order minimal: full
// reachability, hop counts equal to the number of differing coordinates,
// and a single deadlock-free lane.
func TestHXMinHealthyIsMinimal(t *testing.T) {
	hx := smallHX(t)
	tb, err := HXMin(hx, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := validateOK(t, tb, 2)
	if rep.VLs != 1 {
		t.Errorf("hxmin used %d VLs, want 1", rep.VLs)
	}
	for i, src := range hx.Terminals() {
		for j, dst := range hx.Terminals() {
			if i == j {
				continue
			}
			p, err := tb.Path(src, tb.BaseLID[j])
			if err != nil {
				t.Fatalf("path %d->%d: %v", i, j, err)
			}
			cs, cd := hx.Coord(src), hx.Coord(dst)
			want := 0
			for d := range cs {
				if cs[d] != cd[d] {
					want++
				}
			}
			if SwitchHops(p) != want {
				t.Fatalf("path %d->%d: %d switch hops, want %d", i, j, SwitchHops(p), want)
			}
		}
	}
}

func TestHXNonMinHealthy(t *testing.T) {
	hx := smallHX(t)
	tb, err := HXNonMin(hx, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	// On a fault-free lattice the BFS metric equals the lattice metric, so
	// hxnm is minimal too.
	validateOK(t, tb, 2)
}

// Killing the direct link of a pair whose line still has a low-coordinate
// intermediate: hxmin must reroute over the restricted two-hop escape.
func TestHXMinRestrictedEscape(t *testing.T) {
	hx := smallHX(t)
	a, b := hx.SwitchAt(0, 1), hx.SwitchAt(0, 2)
	for _, l := range hx.Nodes[a].Ports {
		if l != nil && l.Other(a) == b {
			l.Down = true
		}
	}
	tb, err := HXMin(hx, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := validateOK(t, tb, 0)
	if rep.VLs != 1 {
		t.Errorf("hxmin used %d VLs, want 1", rep.VLs)
	}
	src := hx.TerminalsOf(a)[0]
	dst := hx.TerminalsOf(b)[0]
	p, err := tb.Path(src, tb.BaseLID[hx.TerminalIndex(dst)])
	if err != nil {
		t.Fatal(err)
	}
	if SwitchHops(p) != 2 {
		t.Fatalf("escape path has %d switch hops, want 2", SwitchHops(p))
	}
	// The intermediate must be the restricted (0,0) switch.
	mid := hx.Graph.ChannelTo(p[1])
	if mid != hx.SwitchAt(0, 0) {
		t.Errorf("escape runs through %s, want s[0 0]", hx.Nodes[mid].Label)
	}
}

// Killing the direct link of a coordinate-0 pair leaves hxmin with no
// restricted intermediate: the pair must be reported unreachable via
// ErrNoRoute — graceful degradation, not a panic or a loop — while hxnm
// still serves it non-minimally.
func TestHXMinStrandsWithoutRestrictedEscape(t *testing.T) {
	hx := smallHX(t)
	a, b := hx.SwitchAt(0, 0), hx.SwitchAt(0, 1)
	for _, l := range hx.Nodes[a].Ports {
		if l != nil && l.Other(a) == b {
			l.Down = true
		}
	}
	tb, err := HXMin(hx, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := hx.TerminalsOf(a)[0]
	dst := hx.TerminalsOf(b)[0]
	_, err = tb.Path(src, tb.BaseLID[hx.TerminalIndex(dst)])
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("stranded pair returned %v, want ErrNoRoute", err)
	}
	rep, err := Validate(tb)
	if err != nil {
		t.Fatal(err)
	}
	// Both terminal pairs over the dead link, in both directions, for T=2.
	if rep.Unreachable == 0 {
		t.Error("Validate did not count the stranded pairs")
	}
	if !rep.DeadlockFree {
		t.Error("degraded hxmin table not deadlock-free")
	}
	if hasForwardingLoop(tb) {
		t.Error("degraded hxmin table has a forwarding loop")
	}

	nm, err := HXNonMin(hx, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	validateOK(t, nm, 0)
}

// hxnm must keep full reachability under any connectivity-preserving
// degradation, and every hop of every path must strictly reduce the BFS
// distance (loop-freedom by construction).
func TestHXNonMinSurvivesHeavyDegradation(t *testing.T) {
	hx := smallHX(t)
	if _, err := topo.DegradeSwitchLinks(hx.Graph, 14, 5); err != nil {
		t.Fatal(err)
	}
	tb, err := HXNonMin(hx, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep := validateOK(t, tb, 0)
	if rep.MaxSwitchHops <= 2 {
		t.Logf("note: max hops %d — degradation did not force a detour", rep.MaxSwitchHops)
	}
	if m := DeadlockMargin(tb, 0); m < 0 || m > 1 {
		t.Errorf("margin %g out of range", m)
	}
}

// The margin must be 1.0 for an empty routing and must not increase when a
// routing saturates more of the dependency space.
func TestDeadlockMarginOrdering(t *testing.T) {
	hx := smallHX(t)
	empty, err := newTables(hx.Graph, "none", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	empty.Freeze()
	if m := DeadlockMargin(empty, 0); m != 1 {
		t.Fatalf("empty routing margin %g, want 1", m)
	}
	one, err := HXMin(hx, 0) // single lane: all dependencies share one CDG
	if err != nil {
		t.Fatal(err)
	}
	mOne := DeadlockMargin(one, 0)
	many, err := DFSSSP(hx.Graph, 0, 8) // layered: each lane far slacker
	if err != nil {
		t.Fatal(err)
	}
	mMany := DeadlockMargin(many, 0)
	if mOne <= 0 || mOne > 1 || mMany <= 0 || mMany > 1 {
		t.Fatalf("margins out of range: hxmin %g dfsssp %g", mOne, mMany)
	}
	t.Logf("margin: hxmin(1 VL)=%.3f dfsssp(%d VLs)=%.3f", mOne, many.NumVL, mMany)
}

func TestCDGCanReach(t *testing.T) {
	g := NewCDG()
	if !g.AddEdge(2, 4) || !g.AddEdge(4, 6) || !g.AddEdge(8, 10) {
		t.Fatal("AddEdge failed")
	}
	if !g.CanReach(2, 6) {
		t.Error("2 should reach 6")
	}
	if g.CanReach(6, 2) {
		t.Error("6 must not reach 2")
	}
	if g.CanReach(2, 10) {
		t.Error("2 must not reach 10 (separate component)")
	}
	if !g.CanReach(4, 4) {
		t.Error("a node reaches itself")
	}
	if g.CanReach(2, 99) {
		t.Error("unknown node is unreachable")
	}
}

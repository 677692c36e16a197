package topo

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/hpcsim/t2hx/internal/sim"
)

func small2DHyperX() *HyperX {
	return NewHyperX(HyperXConfig{S: []int{4, 4}, T: 2, Bandwidth: 1e9, Latency: 100 * sim.Nanosecond})
}

func TestHyperXCounts(t *testing.T) {
	hx := small2DHyperX()
	if got := hx.NumSwitches(); got != 16 {
		t.Errorf("switches = %d, want 16", got)
	}
	if got := hx.NumTerminals(); got != 32 {
		t.Errorf("terminals = %d, want 32", got)
	}
	// Per dimension line of 4 switches: C(4,2)=6 links; 4 rows + 4 cols =
	// 8 lines -> 48 switch links; plus 32 terminal links.
	term, sw, down := CountLinks(hx.Graph)
	if sw != 48 {
		t.Errorf("switch links = %d, want 48", sw)
	}
	if term != 32 {
		t.Errorf("terminal links = %d, want 32", term)
	}
	if down != 0 {
		t.Errorf("down links = %d, want 0", down)
	}
	if err := hx.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHyperXFullConnectivityPerDimension(t *testing.T) {
	hx := small2DHyperX()
	// Every pair of switches differing in exactly one coordinate must share
	// exactly one link; pairs differing in both must share none.
	adj := make(map[[2]NodeID]int)
	for _, l := range hx.LiveSwitchLinks() {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		adj[[2]NodeID{a, b}]++
	}
	for x1 := 0; x1 < 4; x1++ {
		for y1 := 0; y1 < 4; y1++ {
			for x2 := 0; x2 < 4; x2++ {
				for y2 := 0; y2 < 4; y2++ {
					a, b := hx.SwitchAt(x1, y1), hx.SwitchAt(x2, y2)
					if a >= b {
						continue
					}
					want := 0
					if (x1 == x2) != (y1 == y2) { // differ in exactly one dim
						want = 1
					}
					if got := adj[[2]NodeID{a, b}]; got != want {
						t.Fatalf("links between (%d,%d)-(%d,%d) = %d, want %d", x1, y1, x2, y2, got, want)
					}
				}
			}
		}
	}
}

func TestHyperXDiameterEqualsDimensions(t *testing.T) {
	hx := small2DHyperX()
	if d := Diameter(hx.Graph); d != 2 {
		t.Errorf("2-D HyperX diameter = %d, want 2", d)
	}
	hx3 := NewHyperX(HyperXConfig{S: []int{3, 3, 3}, T: 1, Bandwidth: 1e9, Latency: 1e-7})
	if d := Diameter(hx3.Graph); d != 3 {
		t.Errorf("3-D HyperX diameter = %d, want 3", d)
	}
}

// Diameter is kept per link state: links going down must lengthen it,
// bringing them back must restore it, concurrent callers on one graph
// share the memo without a race, and a node added later is counted.
func TestDiameterFollowsLinkState(t *testing.T) {
	hx := small2DHyperX()
	if d := Diameter(hx.Graph); d != 2 {
		t.Fatalf("healthy diameter = %d, want 2", d)
	}
	// Without its links to (1,0) and (0,1), switch (0,0) is three hops
	// from (1,1).
	a := hx.SwitchAt(0, 0)
	var cut []*Link
	for _, l := range hx.Nodes[a].Ports {
		if o := l.Other(a); o == hx.SwitchAt(1, 0) || o == hx.SwitchAt(0, 1) {
			cut = append(cut, l)
		}
	}
	setDown := func(down bool) {
		for _, l := range cut {
			l.Down = down
		}
	}
	setDown(true)
	if d := Diameter(hx.Graph); d != 3 {
		t.Fatalf("diameter with %d links down = %d, want 3", len(cut), d)
	}
	setDown(false)
	if d := Diameter(hx.Graph); d != 2 {
		t.Fatalf("diameter after restoring the links = %d, want 2", d)
	}

	setDown(true)
	got := make([]int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Diameter(hx.Graph)
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != 3 {
			t.Errorf("concurrent call %d: diameter = %d, want 3", i, d)
		}
	}

	// A switch added afterwards is unreachable until it is cabled.
	hx.AddNode(Switch, "spare")
	if d := Diameter(hx.Graph); d != -1 {
		t.Fatalf("diameter with an uncabled switch = %d, want -1", d)
	}
}

func TestHyperXLinkMultiplicity(t *testing.T) {
	hx := NewHyperX(HyperXConfig{S: []int{2, 3}, K: []int{2, 1}, T: 1, Bandwidth: 1e9, Latency: 1e-7})
	// Dimension 0 lines (3 of them, each a single pair) have K=2 links:
	// 3*1*2 = 6; dimension 1 lines (2 lines of 3 switches): 2*3*1 = 6.
	_, sw, _ := CountLinks(hx.Graph)
	if sw != 12 {
		t.Errorf("switch links = %d, want 12", sw)
	}
}

func TestHyperXSwitchAtRoundTrip(t *testing.T) {
	hx := small2DHyperX()
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			id := hx.SwitchAt(x, y)
			c := hx.Coord(id)
			if c[0] != x || c[1] != y {
				t.Fatalf("Coord(SwitchAt(%d,%d)) = %v", x, y, c)
			}
		}
	}
}

func TestHyperXTerminalCoord(t *testing.T) {
	hx := small2DHyperX()
	for _, term := range hx.Terminals() {
		sw := hx.SwitchOf(term)
		tc := hx.Coord(term)
		sc := hx.Coord(sw)
		if tc[0] != sc[0] || tc[1] != sc[1] {
			t.Fatalf("terminal coord %v != its switch coord %v", tc, sc)
		}
	}
}

func TestPaperHyperXInventory(t *testing.T) {
	hx := NewPaperHyperX(false, 0)
	if hx.NumSwitches() != 96 {
		t.Errorf("switches = %d, want 96 (Sec. 2.3)", hx.NumSwitches())
	}
	if hx.NumTerminals() != 672 {
		t.Errorf("terminals = %d, want 672 (Sec. 2.3)", hx.NumTerminals())
	}
	// Inter-switch links: rows 8*C(12,2)=528 + cols 12*C(8,2)=336 = 864.
	_, sw, _ := CountLinks(hx.Graph)
	if sw != 864 {
		t.Errorf("switch links = %d, want 864", sw)
	}
	// Switch radix: 11 + 7 + 7 = 25 ports, within a 36-port Voltaire 4036.
	for _, s := range hx.Switches() {
		if p := len(hx.Nodes[s].Ports); p != 25 {
			t.Fatalf("switch %d radix = %d, want 25", s, p)
		}
	}
	if err := hx.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperHyperXBisection571(t *testing.T) {
	hx := NewPaperHyperX(false, 0)
	got := HyperXWorstBisection(hx)
	want := 4.0 / 7.0 // 57.1% per Sec. 2.3
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("worst bisection = %.4f, want %.4f (57.1%%)", got, want)
	}
}

func TestPaperHyperXDegraded(t *testing.T) {
	hx := NewPaperHyperX(true, 42)
	_, _, down := CountLinks(hx.Graph)
	if down != PaperHyperXMissingAOCs {
		t.Errorf("down links = %d, want %d", down, PaperHyperXMissingAOCs)
	}
	if Diameter(hx.Graph) < 0 {
		t.Error("degradation disconnected the switch fabric")
	}
}

func TestDegradeIsSeededDeterministic(t *testing.T) {
	a := NewPaperHyperX(true, 7)
	b := NewPaperHyperX(true, 7)
	for i := range a.Links {
		if a.Links[i].Down != b.Links[i].Down {
			t.Fatal("same seed degraded different links")
		}
	}
}

func TestDegradeNeverKillsTerminalLinks(t *testing.T) {
	g := NewPaperHyperX(true, 3)
	for _, l := range g.Links {
		if l.Down && (g.Nodes[l.A].Kind == Terminal || g.Nodes[l.B].Kind == Terminal) {
			t.Fatal("terminal link degraded")
		}
	}
}

// Property: any 2-D HyperX with even dims has worst bisection
// min(S0,S1)/2 * other * ... ratio — verify against the analytic formula
// cross = S_other * (S_d/2)^2 links over T*N/2 terminal links.
func TestHyperXBisectionFormula(t *testing.T) {
	f := func(a, b, tt uint8) bool {
		s0 := 2 + 2*int(a%3) // 2,4,6
		s1 := 2 + 2*int(b%3)
		T := 1 + int(tt%4)
		hx := NewHyperX(HyperXConfig{S: []int{s0, s1}, T: T, Bandwidth: 1e9, Latency: 1e-7})
		got := HyperXWorstBisection(hx)
		f0 := float64(s1*(s0/2)*(s0/2)) / float64(T*s0*s1/2)
		f1 := float64(s0*(s1/2)*(s1/2)) / float64(T*s0*s1/2)
		want := math.Min(f0, f1)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

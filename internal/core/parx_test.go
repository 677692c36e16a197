package core

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

func testHX(t *testing.T) *topo.HyperX {
	t.Helper()
	return topo.NewHyperX(topo.HyperXConfig{S: []int{6, 4}, T: 2, Bandwidth: 1e9, Latency: 1e-7})
}

func TestPARXRejectsBadShapes(t *testing.T) {
	hx3 := topo.NewHyperX(topo.HyperXConfig{S: []int{2, 2, 2}, T: 1, Bandwidth: 1e9, Latency: 1e-7})
	if _, err := PARX(hx3, Config{}); err == nil {
		t.Error("3-D HyperX accepted; PARX prototype is 2-D only")
	}
	odd := topo.NewHyperX(topo.HyperXConfig{S: []int{3, 4}, T: 1, Bandwidth: 1e9, Latency: 1e-7})
	if _, err := PARX(odd, Config{}); err == nil {
		t.Error("odd dimension accepted; PARX needs even dimensions")
	}
}

func TestPARXQuadrantLIDPolicy(t *testing.T) {
	hx := testHX(t)
	tb, err := PARX(hx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range hx.Terminals() {
		q := QuadrantOfTerminal(hx, tm)
		base := tb.LIDFor(tm, 0)
		if QuadrantOfLID(base) != q {
			t.Fatalf("terminal in %v got base LID %d (block %v)", q, base, QuadrantOfLID(base))
		}
		if int(base)%4 != 0 {
			t.Fatalf("base LID %d not 4-aligned for LMC=2", base)
		}
	}
}

func TestPARXReachableAndDeadlockFree(t *testing.T) {
	hx := testHX(t)
	tb, err := PARX(hx, Config{MaxVL: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := route.Validate(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unreachable != 0 {
		t.Fatalf("%d unreachable (src,LID) paths", rep.Unreachable)
	}
	if !rep.DeadlockFree {
		t.Fatalf("PARX not deadlock-free on %d VLs", rep.VLs)
	}
	if rep.VLs > 8 {
		t.Fatalf("PARX used %d VLs, hardware limit is 8", rep.VLs)
	}
	want := hx.NumTerminals() * (hx.NumTerminals() - 1) * 4
	if rep.Paths != want {
		t.Errorf("paths = %d, want %d (all 4 LIDs)", rep.Paths, want)
	}
}

// The defining property (criteria 1+2 of Sec. 3.2): for a same-quadrant
// pair, the small-message LID gives a minimal path while the large-message
// LID detours.
func TestPARXMinimalAndDetourPathsCoexist(t *testing.T) {
	hx := testHX(t)
	tb, err := PARX(hx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Pick two terminals on different switches, both in Q0 and in the same
	// row (adjacent switches): minimal distance is 1 switch hop.
	src := hx.TerminalsOf(hx.SwitchAt(0, 0))[0]
	dst := hx.TerminalsOf(hx.SwitchAt(1, 0))[0]
	if QuadrantOfTerminal(hx, src) != Q0 || QuadrantOfTerminal(hx, dst) != Q0 {
		t.Fatal("test setup: terminals not in Q0")
	}
	// Small choice 1 or 3: minimal (1 hop).
	for _, off := range LIDChoices(Q0, Q0, false) {
		p, err := tb.Path(src, tb.LIDFor(dst, off))
		if err != nil {
			t.Fatal(err)
		}
		if h := len(p) - 2; h != 1 { // less injection and delivery
			t.Errorf("small LID%d path has %d switch hops, want 1 (minimal)", off, h)
		}
	}
	// Large choice 0 (remove left half; both are in the left half) must
	// detour: > 1 switch hop.
	detours := 0
	for _, off := range LIDChoices(Q0, Q0, true) {
		p, err := tb.Path(src, tb.LIDFor(dst, off))
		if err != nil {
			t.Fatal(err)
		}
		if len(p)-2 > 1 {
			detours++
		}
	}
	if detours == 0 {
		t.Error("no large-message LID produced a non-minimal path")
	}
}

// Non-minimal routing must increase the aggregate bandwidth between two
// adjacent switches: under PARX the 4 LIDs of the T*T pairs use more than
// the single direct cable.
func TestPARXSpreadsAdjacentSwitchTraffic(t *testing.T) {
	hx := testHX(t)
	tb, err := PARX(hx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	swA, swB := hx.SwitchAt(0, 0), hx.SwitchAt(1, 0)
	first := make(map[topo.ChannelID]bool)
	for _, src := range hx.TerminalsOf(swA) {
		for _, dst := range hx.TerminalsOf(swB) {
			for off := uint8(0); off < 4; off++ {
				p, err := tb.Path(src, tb.LIDFor(dst, off))
				if err != nil {
					t.Fatal(err)
				}
				// First switch-switch channel out of swA.
				if len(p) >= 2 {
					first[p[1]] = true
				}
			}
		}
	}
	if len(first) < 2 {
		t.Errorf("all PARX paths leave swA over %d channel(s); want spread over >= 2", len(first))
	}
}

func TestPARXDemandIngestion(t *testing.T) {
	hx := testHX(t)
	n := hx.NumTerminals()
	// A demand matrix with one hot pair.
	d := make(Demands, n)
	for i := range d {
		d[i] = make([]uint8, n)
	}
	d[0][1] = 255
	tb, err := PARX(hx, Config{Demands: d})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := route.Validate(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unreachable != 0 || !rep.DeadlockFree {
		t.Fatalf("demand-driven PARX invalid: %+v", rep)
	}
}

func TestPARXDemandMatrixSizeChecked(t *testing.T) {
	hx := testHX(t)
	if _, err := PARX(hx, Config{Demands: make(Demands, 3)}); err == nil {
		t.Error("wrong-size demand matrix accepted")
	}
}

func TestPARXOnDegradedFabric(t *testing.T) {
	hx := testHX(t)
	topo.DegradeSwitchLinks(hx.Graph, 5, 11)
	tb, err := PARX(hx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := route.Validate(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unreachable != 0 {
		t.Fatalf("degraded PARX left %d unreachable paths (fallback broken)", rep.Unreachable)
	}
	if !rep.DeadlockFree {
		t.Fatal("degraded PARX not deadlock-free")
	}
}

func TestPARXDeterministic(t *testing.T) {
	hx1, hx2 := testHX(t), testHX(t)
	t1, err := PARX(hx1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := PARX(hx2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range hx1.Terminals() {
		for j := range hx1.Terminals() {
			if i == j {
				continue
			}
			for off := uint8(0); off < 4; off++ {
				lid := t1.BaseLID[j] + route.LID(off)
				p1, _ := t1.Path(src, lid)
				p2, _ := t2.Path(hx2.Terminals()[i], lid)
				if len(p1) != len(p2) {
					t.Fatalf("non-deterministic PARX path for (%d,%d,LID%d)", i, j, off)
				}
				for k := range p1 {
					if p1[k] != p2[k] {
						t.Fatalf("non-deterministic PARX path for (%d,%d,LID%d)", i, j, off)
					}
				}
			}
		}
	}
}

func TestPARXOnPaperHyperX(t *testing.T) {
	if testing.Short() {
		t.Skip("large fabric")
	}
	hx := topo.NewPaperHyperX(true, 42)
	tb, err := PARX(hx, Config{MaxVL: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := route.Validate(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unreachable != 0 {
		t.Fatalf("%d unreachable paths on paper HyperX", rep.Unreachable)
	}
	if !rep.DeadlockFree {
		t.Fatal("PARX not deadlock-free on paper HyperX")
	}
	// Footnote 8: PARX needs 5-8 VLs on the real system; our path set must
	// also stay within the 8-VL hardware budget.
	if rep.VLs > 8 {
		t.Errorf("PARX used %d VLs, above the QDR hardware limit", rep.VLs)
	}
	t.Logf("PARX on 12x8: VLs=%d maxLoad=%d avgHops=%.2f", rep.VLs, rep.MaxChannelLoad, rep.AvgSwitchHops)
}

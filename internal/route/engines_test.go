package route

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/topo"
)

func smallHX(t *testing.T) *topo.HyperX {
	t.Helper()
	return topo.NewHyperX(topo.HyperXConfig{S: []int{4, 4}, T: 2, Bandwidth: 1e9, Latency: 1e-7})
}

func validateOK(t *testing.T, tb *Tables, wantMaxHops int) Report {
	t.Helper()
	rep, err := Validate(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unreachable != 0 {
		t.Fatalf("%s: %d unreachable paths", tb.Engine, rep.Unreachable)
	}
	if !rep.DeadlockFree {
		t.Fatalf("%s: routing not deadlock-free on %d VLs", tb.Engine, rep.VLs)
	}
	if wantMaxHops > 0 && rep.MaxSwitchHops > wantMaxHops {
		t.Fatalf("%s: max switch hops %d > %d", tb.Engine, rep.MaxSwitchHops, wantMaxHops)
	}
	return rep
}

func TestSSSPOnHyperXIsMinimal(t *testing.T) {
	hx := smallHX(t)
	tb, err := SSSP(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Validate(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unreachable != 0 {
		t.Fatalf("%d unreachable", rep.Unreachable)
	}
	// 2-D HyperX diameter is 2 switch hops.
	if rep.MaxSwitchHops != 2 {
		t.Errorf("max hops = %d, want 2 (minimal routing)", rep.MaxSwitchHops)
	}
}

// SSSP has no virtual lanes, and on a HyperX its minimal paths close
// channel dependency cycles on the single lane: Validate must report the
// tables deadlock-prone, in agreement with an independent check.
func TestValidateFlagsSSSPDeadlockOnHyperX(t *testing.T) {
	hxs := []*topo.HyperX{smallHX(t)}
	if !testing.Short() {
		hxs = append(hxs, topo.NewPaperHyperX(false, 0))
	}
	for _, hx := range hxs {
		tb, err := SSSP(hx.Graph, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Validate(tb)
		if err != nil {
			t.Fatal(err)
		}
		if rep.DeadlockFree {
			t.Errorf("%v HyperX: SSSP reported deadlock-free", hx.Cfg.S)
		}
		if singleLaneAcyclic(tb) {
			t.Errorf("%v HyperX: independent check finds SSSP's lane acyclic", hx.Cfg.S)
		}
	}
}

func TestDFSSSPDeadlockFreeOnHyperX(t *testing.T) {
	hx := smallHX(t)
	tb, err := DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep := validateOK(t, tb, 2)
	if rep.VLs < 1 || rep.VLs > 8 {
		t.Errorf("VLs = %d, want within [1,8]", rep.VLs)
	}
}

func TestDFSSSPOnPaperHyperXUsesFewVLs(t *testing.T) {
	if testing.Short() {
		t.Skip("large fabric")
	}
	hx := topo.NewPaperHyperX(false, 0)
	tb, err := DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Sec. 4.4.3: DFSSSP needs only 3 VLs on the paper's HyperX.
	if tb.NumVL > 3 {
		t.Errorf("DFSSSP used %d VLs on 12x8 HyperX, paper reports 3", tb.NumVL)
	}
	rep := validateOK(t, tb, 2)
	if rep.Paths != 672*671 {
		t.Errorf("paths = %d, want %d", rep.Paths, 672*671)
	}
}

func TestFTreeOnKaryNTree(t *testing.T) {
	ft := topo.NewKaryNTree(4, 2, 1e9, 1e-7)
	tb, err := FTree(ft, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := validateOK(t, tb, 2)
	// Same-leaf pairs: 0 switch hops through 1 switch; cross-leaf: 2.
	if rep.MaxSwitchHops != 2 {
		t.Errorf("max hops = %d, want 2", rep.MaxSwitchHops)
	}
}

func TestFTreeShiftPermutationContentionFree(t *testing.T) {
	// D-Mod-K's defining property (Zahavi): shift permutations map onto
	// disjoint up/down paths, so no channel carries more than one flow.
	ft := topo.NewKaryNTree(4, 2, 1e9, 1e-7)
	tb, err := FTree(ft, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph
	terms := g.Terminals()
	n := len(terms)
	isSwitch := SwitchChannelPred(g)
	for shift := 1; shift < n; shift++ {
		load := make(map[topo.ChannelID]int)
		for i, src := range terms {
			dst := terms[(i+shift)%n]
			if g.SwitchOf(src) == g.SwitchOf(dst) {
				continue
			}
			p, err := tb.Path(src, tb.BaseLID[tb.TermIndex(dst)])
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range p {
				if isSwitch(c) {
					load[c]++
				}
			}
		}
		for c, l := range load {
			if l > 1 {
				t.Fatalf("shift %d: channel %d carries %d flows, want 1", shift, c, l)
			}
		}
	}
}

func TestFTreeOnDegradedTreeStillRoutes(t *testing.T) {
	ft := topo.NewKaryNTree(4, 3, 1e9, 1e-7)
	topo.DegradeSwitchLinks(ft.Graph, 20, 7)
	tb, err := FTree(ft, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := validateOK(t, tb, 0)
	if rep.Paths == 0 {
		t.Fatal("no paths routed")
	}
}

func TestFTreeValleyFree(t *testing.T) {
	ft := topo.NewKaryNTree(3, 3, 1e9, 1e-7)
	topo.DegradeSwitchLinks(ft.Graph, 10, 3)
	tb, err := FTree(ft, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph
	for _, src := range g.Terminals() {
		for di, dst := range g.Terminals() {
			if src == dst {
				continue
			}
			p, err := tb.Path(src, tb.BaseLID[di])
			if err != nil {
				t.Fatal(err)
			}
			// Levels along the switch sequence must rise then fall.
			descended := false
			for i := 1; i+1 < len(p); i++ {
				from := g.ChannelFrom(p[i])
				to := g.ChannelTo(p[i])
				if g.Nodes[to].Kind != topo.Switch {
					continue
				}
				up := ft.Level(topo.NodeID(to)) > ft.Level(topo.NodeID(from))
				if up && descended {
					t.Fatalf("valley in path %v", p)
				}
				if !up {
					descended = true
				}
			}
		}
	}
}

func TestUpDownDeadlockFreeOnHyperX(t *testing.T) {
	hx := smallHX(t)
	tb, err := UpDown(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := validateOK(t, tb, 0)
	if rep.VLs != 1 {
		t.Errorf("UpDown should be single-lane, got %d", rep.VLs)
	}
}

func TestUpDownOnDegradedHyperX(t *testing.T) {
	hx := topo.NewHyperX(topo.HyperXConfig{S: []int{4, 4}, T: 1, Bandwidth: 1e9, Latency: 1e-7})
	topo.DegradeSwitchLinks(hx.Graph, 8, 5)
	tb, err := UpDown(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	validateOK(t, tb, 0)
}

func TestSSSPBalancesBetterThanNaive(t *testing.T) {
	// On the 4x4 HyperX with T=2, SSSP's weight updates must keep the
	// worst channel load near the average, not pile everything on one
	// cable.
	hx := smallHX(t)
	tb, err := SSSP(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	loads := ChannelLoads(tb)
	maxLoad := 0
	total := 0
	nonzero := 0
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
		if l > 0 {
			total += l
			nonzero++
		}
	}
	avg := float64(total) / float64(nonzero)
	if float64(maxLoad) > 4*avg {
		t.Errorf("SSSP imbalance: max %d vs avg %.1f", maxLoad, avg)
	}
}

func TestLMCMultipathsExist(t *testing.T) {
	// With LMC=2 the four LIDs of a destination should not all share the
	// identical path for at least some pairs (the multi-pathing PARX
	// exploits; plain SSSP gets diversity from weight evolution).
	hx := smallHX(t)
	tb, err := SSSP(hx.Graph, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := hx.Graph
	terms := g.Terminals()
	diverse := 0
	pairs := 0
	for _, src := range terms {
		for di, dst := range terms {
			if src == dst || g.SwitchOf(src) == g.SwitchOf(dst) {
				continue
			}
			pairs++
			base, err := tb.Path(src, tb.BaseLID[di])
			if err != nil {
				t.Fatal(err)
			}
			for off := uint8(1); off < 4; off++ {
				p, err := tb.Path(src, tb.BaseLID[di]+LID(off))
				if err != nil {
					t.Fatal(err)
				}
				if !samePath(base, p) {
					diverse++
					break
				}
			}
		}
	}
	if diverse == 0 {
		t.Error("LMC=2 produced zero path diversity across all pairs")
	}
	_ = pairs
}

func samePath(a, b []topo.ChannelID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTablesLIDBookkeeping(t *testing.T) {
	hx := smallHX(t)
	tb, err := SSSP(hx.Graph, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, term := range hx.Terminals() {
		base := tb.BaseLID[i]
		for off := uint8(0); off < 4; off++ {
			if got := tb.OwnerOf(base + LID(off)); got != i {
				t.Fatalf("OwnerOf(%d) = %d, want %d", base+LID(off), got, i)
			}
			if tb.LIDFor(term, off) != base+LID(off) {
				t.Fatal("LIDFor mismatch")
			}
		}
	}
	if tb.OwnerOf(0) != -1 {
		t.Error("LID 0 must be unassigned")
	}
}

func TestPathSameSwitchPair(t *testing.T) {
	hx := smallHX(t)
	tb, err := SSSP(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := hx.Graph
	terms := g.Terminals()
	// Two terminals on the same switch: path = injection + delivery.
	var a, b topo.NodeID = -1, -1
	for _, x := range terms {
		for _, y := range terms {
			if x != y && g.SwitchOf(x) == g.SwitchOf(y) {
				a, b = x, y
				break
			}
		}
	}
	if a < 0 {
		t.Skip("no same-switch pair")
	}
	p, err := tb.Path(a, tb.BaseLID[tb.TermIndex(b)])
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 || SwitchHops(p) != 0 {
		t.Errorf("same-switch path = %v, want injection+delivery only", p)
	}
}

// The static root cause of Fig. 1 (middle): on the paper's HyperX two
// switches in one rack are joined by a single QDR cable, and minimal
// routing sends all 7x7 node-pair flows across it.
func TestHyperXSingleCableBottleneckStaticLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("large fabric")
	}
	hx := topo.NewPaperHyperX(false, 0)
	tb, err := DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := hx.Graph
	swA := hx.SwitchAt(0, 0)
	swB := hx.SwitchAt(0, 1) // adjacent in dim 1: single cable
	var cable *topo.Link
	for _, l := range g.UpLinks(swA) {
		if l.Other(swA) == swB {
			cable = l
			break
		}
	}
	if cable == nil {
		t.Fatal("no direct cable between adjacent switches")
	}
	load := 0
	isSwitch := SwitchChannelPred(g)
	for _, src := range g.TerminalsOf(swA) {
		for _, dst := range g.TerminalsOf(swB) {
			p, err := tb.Path(src, tb.BaseLID[tb.TermIndex(dst)])
			if err != nil {
				t.Fatal(err)
			}
			if SwitchHops(p) != 1 {
				t.Fatalf("adjacent-switch path has %d hops, want 1 (minimal)", SwitchHops(p))
			}
			for _, c := range p {
				if isSwitch(c) && c == cable.Channel(swA) {
					load++
				}
			}
		}
	}
	// All 49 pairs must share the one cable: that is the bottleneck PARX
	// attacks ("up to seven traffic streams may share a single cable").
	if load != 49 {
		t.Errorf("cable carries %d of 49 adjacent-pair flows", load)
	}
}

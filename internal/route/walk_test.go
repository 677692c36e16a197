package route_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

type engineBuild struct {
	name  string
	build func() (*route.Tables, error)
}

func hyperXEngines(hx *topo.HyperX) []engineBuild {
	g := hx.Graph
	return []engineBuild{
		{"sssp", func() (*route.Tables, error) { return route.SSSP(g, 0) }},
		{"dfsssp", func() (*route.Tables, error) { return route.DFSSSP(g, 0, 8) }},
		{"updown", func() (*route.Tables, error) { return route.UpDown(g, 0) }},
		{"lash", func() (*route.Tables, error) { return route.LASH(g, 0, 8) }},
		{"nue", func() (*route.Tables, error) { return route.Nue(g, 0, 2) }},
		{"hxmin", func() (*route.Tables, error) { return route.HXMin(hx, 0) }},
		{"hxnm", func() (*route.Tables, error) { return route.HXNonMin(hx, 0, 8) }},
		// LMC 2 with quadrant-blocked, non-contiguous base LIDs.
		{"parx", func() (*route.Tables, error) { return core.PARX(hx, core.Config{MaxVL: 8}) }},
	}
}

func smallHyperX() *topo.HyperX {
	return topo.NewHyperX(topo.HyperXConfig{S: []int{4, 4}, T: 2, Bandwidth: 1e9, Latency: 1e-7})
}

// cutLink takes the switch links between a and b down.
func cutLink(hx *topo.HyperX, a, b topo.NodeID) {
	for _, l := range hx.Nodes[a].Ports {
		if l != nil && l.Other(a) == b {
			l.Down = true
		}
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// The key walk must reproduce the per-pair walks exactly: every engine's
// SL table, lane count, Report, deadlock margin, channel loads and error
// text, on fabrics where terminal order follows switch order and where it
// does not, with detached terminals, stranded pairs, LMC 2 and an
// overflowing lane budget. Each engine's forwarding tables also go through
// both lane passes at budgets 1 and 8.
func TestKeyWalkMatchesPairWalk(t *testing.T) {
	type fabric struct {
		name    string
		engines []engineBuild
		// hyperx marks fabrics whose terminal order follows switch order,
		// the only ones the tolerant lane pass serves.
		hyperx bool
	}
	healthy := smallHyperX()
	degraded := smallHyperX()
	if _, err := topo.DegradeSwitchLinks(degraded.Graph, 6, 3); err != nil {
		t.Fatal(err)
	}
	tree := topo.NewKaryNTree(3, 3, 1e9, 1e-7)
	topo.DegradeSwitchLinks(tree.Graph, 4, 5)
	ring := permutedRing()
	for _, g := range []*topo.Graph{tree.Graph, ring} {
		if !interleaved(g) {
			t.Fatalf("%s terminals follow switch order; the case would not test interleaving", g.Name)
		}
	}
	switchDown := smallHyperX()
	for _, l := range switchDown.Nodes[switchDown.SwitchAt(1, 2)].Ports {
		if l != nil {
			l.Down = true
		}
	}
	stranded := smallHyperX()
	cutLink(stranded, stranded.SwitchAt(0, 0), stranded.SwitchAt(0, 1))
	tg := tree.Graph
	fabrics := []fabric{
		{"healthy hyperx", hyperXEngines(healthy), true},
		{"degraded hyperx", hyperXEngines(degraded), true},
		{"k-ary n-tree", []engineBuild{
			{"ftree", func() (*route.Tables, error) { return route.FTree(tree, 0) }},
			{"sssp", func() (*route.Tables, error) { return route.SSSP(tg, 0) }},
			{"dfsssp", func() (*route.Tables, error) { return route.DFSSSP(tg, 0, 8) }},
			{"updown", func() (*route.Tables, error) { return route.UpDown(tg, 0) }},
			{"lash", func() (*route.Tables, error) { return route.LASH(tg, 0, 8) }},
			{"nue", func() (*route.Tables, error) { return route.Nue(tg, 0, 2) }},
		}, false},
		// updown and nue refuse a fabric with an isolated switch.
		// A fat tree needs one lane, so only a cyclic fabric shows whether
		// lanes follow the pair walk's order.
		{"ring", []engineBuild{
			{"sssp", func() (*route.Tables, error) { return route.SSSP(ring, 0) }},
			{"dfsssp", func() (*route.Tables, error) { return route.DFSSSP(ring, 0, 8) }},
			{"updown", func() (*route.Tables, error) { return route.UpDown(ring, 0) }},
			{"lash", func() (*route.Tables, error) { return route.LASH(ring, 0, 8) }},
		}, false},
		{"switch down", except(hyperXEngines(switchDown), "updown", "nue"), true},
		{"hxmin stranding", hyperXEngines(stranded), true},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			for _, e := range f.engines {
				tb, err := e.build()
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				checkKeyWalk(t, e.name, tb, f.hyperx)
			}
		})
	}
}

// The same on the degraded paper planes, for the tables Validate checks
// on its CDG path: nue's several lanes and the single lanes of sssp and
// updown carry no certificate, so their dependencies are fed to the lanes
// from the trees. dfsssp and ftree take the certificate path.
func TestKeyWalkMatchesPairWalkAtPaperScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-size builds")
	}
	hx := topo.NewPaperHyperX(true, 3)
	ft := topo.NewPaperFatTree(true, 3)
	for _, e := range []engineBuild{
		{"hyperx nue", func() (*route.Tables, error) { return route.Nue(hx.Graph, 0, 2) }},
		{"hyperx sssp", func() (*route.Tables, error) { return route.SSSP(hx.Graph, 0) }},
		{"hyperx updown", func() (*route.Tables, error) { return route.UpDown(hx.Graph, 0) }},
		{"hyperx dfsssp", func() (*route.Tables, error) { return route.DFSSSP(hx.Graph, 0, 8) }},
		{"fat-tree nue", func() (*route.Tables, error) { return route.Nue(ft.Graph, 0, 2) }},
		{"fat-tree sssp", func() (*route.Tables, error) { return route.SSSP(ft.Graph, 0) }},
		{"fat-tree updown", func() (*route.Tables, error) { return route.UpDown(ft.Graph, 0) }},
		{"fat-tree ftree", func() (*route.Tables, error) { return route.FTree(ft, 0) }},
	} {
		tb, err := e.build()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		rep, err := route.Validate(tb)
		want, wantErr := refValidate(tb)
		if errText(err) != errText(wantErr) || err == nil && rep != want {
			t.Errorf("%s: Validate = %+v, %v; pair walk %+v, %v", e.name, rep, err, want, wantErr)
		}
		if !slices.Equal(route.ChannelLoads(tb), refChannelLoads(tb)) {
			t.Errorf("%s: ChannelLoads differ from the pair walk", e.name)
		}
	}
}

func except(engines []engineBuild, names ...string) []engineBuild {
	return slices.DeleteFunc(engines, func(e engineBuild) bool { return slices.Contains(names, e.name) })
}

// permutedRing is a ring of six switches with two terminals each, numbered
// round-robin over a shuffled switch order: the switches' first terminals
// come in another order than the switches.
func permutedRing() *topo.Graph {
	g := topo.New("ring")
	var sw [6]topo.NodeID
	for i := range sw {
		sw[i] = g.AddNode(topo.Switch, fmt.Sprintf("s%d", i)).ID
	}
	for i := range sw {
		g.Connect(sw[i], sw[(i+1)%len(sw)], 1e9, 1e-7)
	}
	for k := 0; k < 2; k++ {
		for _, i := range []int{3, 1, 5, 0, 4, 2} {
			g.Connect(sw[i], g.AddNode(topo.Terminal, fmt.Sprintf("t%d.%d", i, k)).ID, 1e9, 1e-7)
		}
	}
	return g
}

// interleaved reports whether some switch's terminals are not contiguous in
// terminal order.
func interleaved(g *topo.Graph) bool {
	seen := map[topo.NodeID]bool{}
	prev := topo.NodeID(-1)
	for _, tm := range g.Terminals() {
		sw := g.SwitchOf(tm)
		if sw != prev && seen[sw] {
			return true
		}
		seen[sw], prev = true, sw
	}
	return false
}

func checkKeyWalk(t *testing.T, label string, tb *route.Tables, tolerant bool) {
	t.Helper()
	rep, err := route.Validate(tb)
	want, wantErr := refValidate(tb)
	if errText(err) != errText(wantErr) {
		t.Errorf("%s: Validate error %q, pair walk %q", label, errText(err), errText(wantErr))
	} else if err == nil && rep != want {
		t.Errorf("%s: Validate = %+v, pair walk %+v", label, rep, want)
	}
	for _, n := range []int{0, 64} {
		if got, want := route.DeadlockMargin(tb, n), refDeadlockMargin(tb, n); got != want {
			t.Errorf("%s: DeadlockMargin(%d) = %v, pair walk %v", label, n, got, want)
		}
	}
	if !slices.Equal(route.ChannelLoads(tb), refChannelLoads(tb)) {
		t.Errorf("%s: ChannelLoads differ from the pair walk", label)
	}
	for _, maxVL := range []int{1, 8} {
		compareLanes(t, fmt.Sprintf("%s AssignVLs(%d)", label, maxVL), tb, maxVL, route.AssignVLs, refAssignVLs)
		if tolerant {
			compareLanes(t, fmt.Sprintf("%s tolerant(%d)", label, maxVL), tb, maxVL,
				route.AssignLanesTolerant, refAssignLanesTolerant)
		}
	}
}

func compareLanes(t *testing.T, label string, tb *route.Tables, maxVL int, pass, ref func(*route.Tables, int) error) {
	t.Helper()
	got, want := tb.WithoutLanes(), tb.WithoutLanes()
	err, wantErr := pass(got, maxVL), ref(want, maxVL)
	if errText(err) != errText(wantErr) {
		t.Errorf("%s: error %q, pair walk %q", label, errText(err), errText(wantErr))
		return
	}
	if err != nil {
		return
	}
	if got.NumVL != want.NumVL {
		t.Errorf("%s: NumVL %d, pair walk %d", label, got.NumVL, want.NumVL)
	}
	if d := firstSLDiff(got, want); d != "" {
		t.Errorf("%s: %s", label, d)
	}
}

// firstSLDiff names the first (src, dst-LID) pair whose SL differs.
func firstSLDiff(a, b *route.Tables) string {
	terms := a.G.Terminals()
	for _, src := range terms {
		for di := range terms {
			for off := 0; off < 1<<a.LMC; off++ {
				lid := a.BaseLID[di] + route.LID(off)
				if a.SL(src, lid) != b.SL(src, lid) {
					return fmt.Sprintf("SL(%d, %d) = %d, pair walk %d", src, lid, a.SL(src, lid), b.SL(src, lid))
				}
			}
		}
	}
	return ""
}

// The lane passes must keep the errors of the pair walks: DFSSSP's paths
// overflow a one-lane budget in either pass, and hxmin's stranded pairs
// stop the strict pass.
func TestKeyWalkLanePassErrors(t *testing.T) {
	hx := smallHyperX()
	sssp, err := route.SSSP(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = route.AssignVLs(sssp.WithoutLanes(), 1)
	if err == nil || !strings.Contains(err.Error(), "needs more than 1 virtual lanes (failed at path") {
		t.Errorf("DFSSSP lane pass at maxVL 1: %v, want a lane-budget error", err)
	}
	if wantErr := refAssignVLs(sssp.WithoutLanes(), 1); errText(err) != errText(wantErr) {
		t.Errorf("error %q, pair walk %q", errText(err), errText(wantErr))
	}
	err = route.AssignLanesTolerant(sssp.WithoutLanes(), 1)
	if err == nil || !strings.Contains(err.Error(), "needs more than 1 virtual lanes (failed at path") {
		t.Errorf("tolerant lane pass at maxVL 1: %v, want a lane-budget error", err)
	}
	if wantErr := refAssignLanesTolerant(sssp.WithoutLanes(), 1); errText(err) != errText(wantErr) {
		t.Errorf("error %q, pair walk %q", errText(err), errText(wantErr))
	}

	cutLink(hx, hx.SwitchAt(0, 0), hx.SwitchAt(0, 1))
	hxmin, err := route.HXMin(hx, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = route.AssignVLs(hxmin.WithoutLanes(), 8)
	if err == nil || !strings.Contains(err.Error(), "no entry for LID") {
		t.Errorf("strict lane pass over stranded pairs: %v, want a Path error", err)
	}
	if wantErr := refAssignVLs(hxmin.WithoutLanes(), 8); errText(err) != errText(wantErr) {
		t.Errorf("error %q, pair walk %q", errText(err), errText(wantErr))
	}
}

// SLs that differ between the source terminals of one switch never come
// from an engine. Validate must still check every pair's SL, offer each
// lane the paths of the pairs on it, and name the SL error the pair walk
// meets first.
func TestValidateMatchesPairWalkOnPerPairSLs(t *testing.T) {
	hx := smallHyperX()
	if _, err := topo.DegradeSwitchLinks(hx.Graph, 6, 3); err != nil {
		t.Fatal(err)
	}
	tb, err := route.DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	terms := hx.Terminals()
	mixed := tb.MutableClone()
	r := sim.NewRand(7)
	for _, src := range terms {
		for di, dst := range terms {
			if src != dst {
				mixed.SetSL(src, tb.BaseLID[di], uint8(r.Intn(tb.NumVL)))
			}
		}
	}
	rep, err := route.Validate(mixed)
	want, wantErr := refValidate(mixed)
	if err != nil || wantErr != nil || rep != want {
		t.Errorf("Validate = %+v, %v; pair walk %+v, %v", rep, err, want, wantErr)
	}
	if rep.DeadlockFree {
		t.Error("random SLs left every lane acyclic")
	}

	// Terminal 1 shares terminal 0's switch. Its pair toward terminal 2
	// belongs to a key that first occurs before the key of terminal 0's
	// pair toward terminal 5, yet the pair walk meets terminal 0's first.
	if hx.SwitchOf(terms[1]) != hx.SwitchOf(terms[0]) || hx.SwitchOf(terms[2]) == hx.SwitchOf(terms[0]) {
		t.Fatal("unexpected terminal layout")
	}
	bad := mixed.MutableClone()
	bad.SetSL(terms[1], tb.BaseLID[2], uint8(tb.NumVL+1))
	bad.SetSL(terms[0], tb.BaseLID[5], uint8(tb.NumVL+2))
	bad.NumVL = tb.NumVL
	_, err = route.Validate(bad)
	_, wantErr = refValidate(bad)
	if err == nil || errText(err) != errText(wantErr) {
		t.Errorf("Validate error %q, pair walk %q", errText(err), errText(wantErr))
	}

	// The highest SL must not wrap into a lane in range.
	top := tb.MutableClone()
	top.SetSL(terms[0], tb.BaseLID[5], 255)
	top.NumVL = tb.NumVL
	_, err = route.Validate(top)
	_, wantErr = refValidate(top)
	if err == nil || errText(err) != errText(wantErr) {
		t.Errorf("SL 255: Validate error %q, pair walk %q", errText(err), errText(wantErr))
	}
}

// Lanes from maskLanes (7) up are past Validate's rise masks and are
// checked by walking the path. A certificate ranking such a lane as the
// pair's engine lane is accepted, and one leaving it unranked is not,
// with the pair walk's report either way.
func TestValidateChecksLanesPastRiseMasks(t *testing.T) {
	hx := smallHyperX()
	if _, err := topo.DegradeSwitchLinks(hx.Graph, 6, 3); err != nil {
		t.Fatal(err)
	}
	tb, err := route.DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	terms := hx.Terminals()
	var lid route.LID
	for _, dst := range terms[1:] {
		lid = tb.LIDFor(dst, 0)
		if p, err := tb.Path(terms[0], lid); err == nil && route.SwitchHops(p) >= 2 {
			break
		}
	}
	for _, high := range []uint8{7, 20} {
		for _, ranked := range []bool{true, false} {
			ranks := slices.Clone(tb.LaneRanks())
			for len(ranks) <= int(high) {
				ranks = append(ranks, nil)
			}
			if ranked {
				ranks[high] = ranks[tb.SL(terms[0], lid)]
			}
			moved := tb.WithLaneRanks(ranks)
			moved.SetSL(terms[0], lid, high)
			rep, certified, err := route.ValidateProof(moved)
			want, wantErr := refValidate(moved)
			if err != nil || wantErr != nil || rep != want {
				t.Errorf("lane %d ranked %v: Validate = %+v, %v; pair walk %+v, %v", high, ranked, rep, err, want, wantErr)
			}
			if certified != ranked {
				t.Errorf("lane %d ranked %v: certified %v", high, ranked, certified)
			}
		}
	}
}

// On a line of 70 switches, SSSP's paths between the ends run past
// MaxHops switch channels, which Path reports as a forwarding loop and
// Validate as unreachable pairs; the trees' resolution must agree with
// the pair walk, and ChannelLoads too.
func TestValidateCountsPathsPastMaxHopsUnreachable(t *testing.T) {
	g := switchLine(70)
	tb, err := route.SSSP(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	terms := g.Terminals()
	if _, err := tb.Path(terms[0], tb.BaseLID[69]); err == nil || !strings.Contains(err.Error(), "forwarding loop") {
		t.Fatalf("Path over 69 switch hops: %v, want a forwarding loop", err)
	}
	if p, err := tb.Path(terms[0], tb.BaseLID[64]); err != nil || route.SwitchHops(p) != route.MaxHops {
		t.Fatalf("Path over MaxHops switch hops: %v", err)
	}
	rep, err := route.Validate(tb)
	want, wantErr := refValidate(tb)
	if err != nil || wantErr != nil || rep != want {
		t.Errorf("Validate = %+v, %v; pair walk %+v, %v", rep, err, want, wantErr)
	}
	if rep.Unreachable != 30 || rep.MaxSwitchHops != route.MaxHops {
		t.Errorf("Validate = %+v, want 30 unreachable pairs and %d hops at most", rep, route.MaxHops)
	}
	if !slices.Equal(route.ChannelLoads(tb), refChannelLoads(tb)) {
		t.Error("ChannelLoads differ from the pair walk")
	}
}

// switchLine is a line of n switches with one terminal each.
func switchLine(n int) *topo.Graph {
	g := topo.New("line")
	var prev topo.NodeID = -1
	for i := 0; i < n; i++ {
		sw := g.AddNode(topo.Switch, fmt.Sprintf("s%d", i)).ID
		if prev >= 0 {
			g.Connect(prev, sw, 1e9, 1e-7)
		}
		g.Connect(sw, g.AddNode(topo.Terminal, fmt.Sprintf("t%d", i)).ID, 1e9, 1e-7)
		prev = sw
	}
	return g
}

// The key walk follows each key through the LFTs and the channel heads
// and, where it stops, asks Path for the error. Three failures that
// FuzzLanePass's LFT rewires cannot make must stop it where Path stops,
// with Path's text, in both lane passes, Validate and DeadlockMargin: a
// switch link taken down after routing, an entry cleared to NoChannel,
// and a chain past MaxHops switch channels.
func TestKeyWalkFailsWherePathFails(t *testing.T) {
	hx := smallHyperX()
	routed, err := route.DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Terminal src's key toward dst crosses the link between switches
	// (0,0) and (0,1).
	a, b := hx.SwitchAt(0, 0), hx.SwitchAt(0, 1)
	src, dst := hx.TerminalsOf(a)[0], hx.TerminalsOf(b)[0]
	lid := routed.BaseLID[hx.TerminalIndex(dst)]
	cleared := routed.MutableClone()
	cleared.SetNextHop(a, lid, route.NoChannel)

	downHX := smallHyperX() // built alike, so it shares hx's node IDs
	down, err := route.DFSSSP(downHX.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	cutLink(downHX, a, b)

	line, err := route.SSSP(switchLine(70), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		tb       *route.Tables
		src      topo.NodeID
		lid      route.LID
		want     string // the Path and AssignVLs error
		tolerant bool   // ErrNoRoute: the tolerant pass skips the pair
	}{
		{"link down", down, src, lid, "uses down link", false},
		{"entry cleared", cleared, src, lid, "no entry for LID", true},
		{"past MaxHops", line, line.G.Terminals()[0], line.BaseLID[69], "forwarding loop", false},
	} {
		if _, err := c.tb.Path(c.src, c.lid); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Path = %v, want an error containing %q", c.name, err, c.want)
		}
		err := route.AssignVLs(c.tb.WithoutLanes(), 8)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: AssignVLs = %v, want an error containing %q", c.name, err, c.want)
		}
		if err := route.AssignLanesTolerant(c.tb.WithoutLanes(), 8); (err == nil) != c.tolerant {
			t.Errorf("%s: tolerant lane pass = %v", c.name, err)
		}
		checkKeyWalk(t, c.name, c.tb, true)
	}
}

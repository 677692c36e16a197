package route_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

// laneEngine is an engine whose build ends in the lane pass, with that
// pass's lane budget and tolerance.
type laneEngine struct {
	name     string
	maxVL    int
	tolerant bool
	build    func(hx *topo.HyperX) (*route.Tables, error)
}

var (
	laneDFSSSP = laneEngine{"dfsssp", 8, false, func(hx *topo.HyperX) (*route.Tables, error) { return route.DFSSSP(hx.Graph, 0, 8) }}
	laneLASH   = laneEngine{"lash", 8, false, func(hx *topo.HyperX) (*route.Tables, error) { return route.LASH(hx.Graph, 0, 8) }}
	// LMC 2 with quadrant-blocked base LIDs.
	lanePARX = laneEngine{"parx", 8, false, func(hx *topo.HyperX) (*route.Tables, error) { return core.PARX(hx, core.Config{MaxVL: 8}) }}
	laneHXNM = laneEngine{"hxnm", 8, true, func(hx *topo.HyperX) (*route.Tables, error) { return route.HXNonMin(hx, 0, 8) }}
)

// checkLanePass runs the reference lane pass on the forwarding tables of
// e's build and requires the build's SL table, lane count and lane
// certificate bit for bit.
func checkLanePass(t *testing.T, label string, hx *topo.HyperX, e laneEngine) {
	t.Helper()
	tb, err := e.build(hx)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := tb.WithoutLanes()
	if err := route.RefAssignLanes(want, e.maxVL, e.tolerant); err != nil {
		t.Fatalf("%s: reference lane pass: %v", label, err)
	}
	if tb.NumVL != want.NumVL {
		t.Errorf("%s: NumVL %d, reference %d", label, tb.NumVL, want.NumVL)
	}
	if d := firstSLDiff(tb, want); d != "" {
		t.Errorf("%s: against the reference lane pass, %s", label, d)
	}
	got, ref := tb.LaneRanks(), want.LaneRanks()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d lane certificates, reference %d", label, len(got), len(ref))
	}
	for vl := range got {
		if !slices.Equal(got[vl], ref[vl]) {
			t.Errorf("%s: lane %d order differs from the reference", label, vl)
		}
	}
}

// The lane pass takes each key's switch-channel span and refuses the
// dependencies its lanes' committed edges refused before without searching
// again. Neither may move a lane: every engine that runs the pass must
// leave the SLs, NumVL and lane orders of the pass that offers whole paths
// and searches every dependency (refAddPath).
func TestLanePassMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 3, 11} {
		hx := smallHyperX()
		if _, err := topo.DegradeSwitchLinks(hx.Graph, 6, seed); err != nil {
			t.Fatal(err)
		}
		for _, e := range []laneEngine{laneDFSSSP, laneLASH, lanePARX, laneHXNM} {
			checkLanePass(t, fmt.Sprintf("small seed %d %s", seed, e.name), hx, e)
		}
	}
}

// The same on the degraded paper HyperX, where PARX needs most lanes and
// refuses most paths.
func TestLanePassMatchesReferenceAtPaperScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-size builds")
	}
	for _, seed := range []uint64{1, 3, 11} {
		hx := topo.NewPaperHyperX(true, seed)
		for _, e := range []laneEngine{laneDFSSSP, lanePARX} {
			checkLanePass(t, fmt.Sprintf("paper seed %d %s", seed, e.name), hx, e)
		}
	}
}

// lanePassFabric is FuzzLanePass's walk graph: a 3x3 HyperX with one
// terminal per switch, small enough that a few walks close cycles.
func lanePassFabric() *topo.HyperX {
	return topo.NewHyperX(topo.HyperXConfig{S: []int{3, 3}, T: 1, Bandwidth: 1e9, Latency: 1e-7})
}

// liveOuts lists the live channels leaving node n toward switches.
func liveOuts(g *topo.Graph, n topo.NodeID) []topo.ChannelID {
	var outs []topo.ChannelID
	for _, l := range g.Nodes[n].Ports {
		if l != nil && !l.Down && g.Nodes[l.Other(n)].Kind == topo.Switch {
			outs = append(outs, l.Channel(n))
		}
	}
	return outs
}

// terminalLink returns the channel between switch sw and its first
// terminal, leaving the switch when out is set and entering it otherwise.
func terminalLink(g *topo.Graph, sw topo.NodeID, out bool) topo.ChannelID {
	term := g.TerminalsOf(sw)[0]
	for _, l := range g.Nodes[sw].Ports {
		if l != nil && l.Other(sw) == term {
			if out {
				return l.Channel(sw)
			}
			return l.Channel(term)
		}
	}
	panic("no terminal link")
}

// walkPaths decodes records into paths over g's switch channels. A record
// [op, a, hops...] with op's high bit set repeats path a (mod the paths so
// far); otherwise it walks op%8 switch hops from switch channel a, hop
// byte b taking the (b mod ports)th live switch port of the switch the walk
// has reached, U-turns and revisits included. Each walk is wrapped in the
// injection channel from its first switch's terminal and the delivery
// channel to its last switch's terminal.
func walkPaths(g *topo.Graph, recs []byte) [][]topo.ChannelID {
	var chans []topo.ChannelID
	for _, sw := range g.Switches() {
		chans = append(chans, liveOuts(g, sw)...)
	}
	var paths [][]topo.ChannelID
	for len(recs) >= 2 && len(paths) < 64 {
		op, a := recs[0], int(recs[1])
		recs = recs[2:]
		if op&0x80 != 0 {
			if len(paths) > 0 {
				paths = append(paths, paths[a%len(paths)])
			}
			continue
		}
		c := chans[a%len(chans)]
		walk := []topo.ChannelID{terminalLink(g, g.ChannelFrom(c), false), c}
		for n := int(op % 8); n > 0 && len(recs) > 0; n-- {
			outs := liveOuts(g, g.ChannelTo(c))
			c = outs[int(recs[0])%len(outs)]
			recs = recs[1:]
			walk = append(walk, c)
		}
		paths = append(paths, append(walk, terminalLink(g, g.ChannelTo(c), true)))
	}
	return paths
}

// keyPaths returns the paths of tb from each switch's first attached
// terminal toward every other terminal's LIDs, skipping Path errors.
func keyPaths(tb *route.Tables) [][]topo.ChannelID {
	g := tb.G
	terms := g.Terminals()
	seen := make(map[topo.NodeID]bool)
	var paths [][]topo.ChannelID
	for _, src := range terms {
		sw := g.SwitchOf(src)
		if sw < 0 || seen[sw] {
			continue
		}
		seen[sw] = true
		for di, dst := range terms {
			for off := 0; off < 1<<tb.LMC && dst != src; off++ {
				if p, err := tb.Path(src, tb.BaseLID[di]+route.LID(off)); err == nil {
					paths = append(paths, p)
				}
			}
		}
	}
	return paths
}

// FuzzLanePass checks the lane pass's layering, which takes each path's
// switch-channel span and refuses a dependency its lane's committed edges
// refused before without searching again, against the reference layering
// (refAddPath over refCDG), which offers each whole path and searches
// every dependency with the reference insert. Both must put every path on
// the same lane, at a budget of 8 lanes, and leave every lane with the
// same topological order.
//
// The first byte picks the path set. Even: walks on a 3x3 HyperX decoded
// from the rest by walkPaths, repeats included. Odd: the key paths of
// fuzzTables' table data[1] (mod 8) after LFT rewrites, each following
// 4-byte record [a, b, c, d] pointing switch a's entry toward LID offset c
// of terminal b at its live port d. The rewired tables also go through
// AssignVLs and the tolerant lane pass, which must leave the SL tables
// and lane count of the pair walk (refAssignVLs, tolerantPairWalk) or
// fail with its error text: rewires make loops and deliveries to the
// wrong terminal. The tolerant pass is not held to
// refAssignLanesTolerant here: that walk takes one source terminal per
// switch, so it never walks the pairs toward a switch's own first
// terminal, which a rewire can send away, and sets the SL of a terminal
// toward itself.
//
// The committed corpus (testdata/fuzz/FuzzLanePass) holds walks that need
// several lanes and refuse dependencies both on committed edges and
// through their own, each table untouched and rewired, and rewires that
// make a loop or a delivery to the wrong terminal; make fuzz explores
// further.
func FuzzLanePass(f *testing.F) {
	walkFabric := lanePassFabric()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := walkFabric.Graph
		var paths [][]topo.ChannelID
		if data[0]%2 == 0 {
			paths = walkPaths(g, data[1:])
		} else {
			bases, err := fuzzTables()
			if err != nil {
				t.Fatal(err)
			}
			tb := bases[int(data[1])%len(bases)].MutableClone()
			g = tb.G
			terms, sws := g.Terminals(), g.Switches()
			recs := data[2:]
			for n := 0; len(recs) >= 4 && n < 16; n++ {
				r := recs[:4]
				recs = recs[4:]
				sw := sws[int(r[0])%len(sws)]
				lid := tb.BaseLID[int(r[1])%len(terms)] + route.LID(int(r[2])%(1<<tb.LMC))
				var live []topo.ChannelID
				for _, l := range g.Nodes[sw].Ports {
					if l != nil && !l.Down {
						live = append(live, l.Channel(sw))
					}
				}
				tb.SetNextHop(sw, lid, live[int(r[3])%len(live)])
			}
			paths = keyPaths(tb)
			// The lane passes walk the rewired tables' keys through the
			// LFTs and channel heads and must fail where Path fails.
			compareLanes(t, "AssignVLs", tb, 8, route.AssignVLs, refAssignVLs)
			if err := refAssignVLs(tb.WithoutLanes(), 8); err == nil || errors.Unwrap(err) != nil && !errors.Is(err, route.ErrNoRoute) {
				compareLanes(t, "tolerant", tb, 8, route.AssignLanesTolerant, tolerantPairWalk)
			}
		}
		spans := make([][]topo.ChannelID, len(paths))
		for i, p := range paths {
			spans[i] = p[1 : len(p)-1]
		}
		vls, ords := route.LayerSpans(g, spans, 8)
		wantVLs, wantOrds := route.RefLayerPaths(g, paths, 8)
		if i := firstDiff(vls, wantVLs); i >= 0 {
			t.Fatalf("path %d of %d: lane %d, reference %d", i, len(paths), vls[i], wantVLs[i])
		}
		if len(ords) != len(wantOrds) {
			t.Fatalf("%d lanes, reference %d", len(ords), len(wantOrds))
		}
		for vl := range ords {
			if !slices.Equal(ords[vl], wantOrds[vl]) {
				t.Fatalf("lane %d order %v, reference %v", vl, ords[vl], wantOrds[vl])
			}
		}
	})
}

// tolerantPairWalk is the pair walk refAssignVLs with the tolerant lane
// pass's error text. On tables that program every pair, as rewires onto
// live ports leave them, the tolerant pass skips no pair and walks the
// keys AssignVLs walks, so it fails with the pair walk's Path error or
// leaves its SL tables. FuzzLanePass compares neither a pair the tables
// leave unprogrammed (ErrNoRoute), which the tolerant pass skips, nor a
// lane-budget error, in which the passes number paths differently.
func tolerantPairWalk(t *route.Tables, maxVL int) error {
	err := refAssignVLs(t, maxVL)
	if inner := errors.Unwrap(err); inner != nil {
		return fmt.Errorf("route: %s lane assignment: %w", t.Engine, inner)
	}
	return err
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []int) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

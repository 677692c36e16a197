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

// enginePair builds one engine over the live-link index (got) and as the
// port scans built it (want).
type enginePair struct {
	name      string
	got, want func() (*route.Tables, error)
}

// scanPairs lists the engines that read the live-link index on g at lmc:
// SSSP, DFSSSP and LASH on any fabric, hxmin and hxnm when hx is the
// fabric's lattice. DFSSSP and hxnm run at each lane budget of vls; a
// budget of 1 makes their lane passes fail, so error text is compared too.
func scanPairs(g *topo.Graph, hx *topo.HyperX, lmc uint8, vls []int) []enginePair {
	ps := []enginePair{
		{fmt.Sprintf("sssp lmc=%d", lmc), func() (*route.Tables, error) { return route.SSSP(g, lmc) },
			func() (*route.Tables, error) { return route.RefSSSP(g, lmc) }},
		{fmt.Sprintf("lash lmc=%d", lmc), func() (*route.Tables, error) { return route.LASH(g, lmc, 8) },
			func() (*route.Tables, error) { return route.RefLASH(g, lmc, 8) }},
	}
	for _, vl := range vls {
		ps = append(ps, enginePair{fmt.Sprintf("dfsssp-%dvl lmc=%d", vl, lmc),
			func() (*route.Tables, error) { return route.DFSSSP(g, lmc, vl) },
			func() (*route.Tables, error) { return route.RefDFSSSP(g, lmc, vl) }})
	}
	if hx == nil {
		return ps
	}
	ps = append(ps, enginePair{fmt.Sprintf("hxmin lmc=%d", lmc),
		func() (*route.Tables, error) { return route.HXMin(hx, lmc) },
		func() (*route.Tables, error) { return route.RefHXMin(hx, lmc) }})
	for _, vl := range vls {
		ps = append(ps, enginePair{fmt.Sprintf("hxnm-%dvl lmc=%d", vl, lmc),
			func() (*route.Tables, error) { return route.HXNonMin(hx, lmc, vl) },
			func() (*route.Tables, error) { return route.RefHXNonMin(hx, lmc, vl) }})
	}
	return ps
}

// parxPair is PARX without demands (LMC 2) against its SSSP pass run by the
// port-scan reference. The reference takes the quadrant base LIDs of the
// PARX build, which runs first, and applies PARX's half-lattice link masks.
func parxPair(hx *topo.HyperX) enginePair {
	var base []route.LID
	return enginePair{"parx",
		func() (*route.Tables, error) {
			t, err := core.PARX(hx, core.Config{MaxVL: 8})
			if err == nil {
				base = t.BaseLID
			}
			return t, err
		},
		func() (*route.Tables, error) { return refPARX(hx, base) }}
}

func refPARX(hx *topo.HyperX, base []route.LID) (*route.Tables, error) {
	t, err := route.NewTables(hx.Graph, "parx", core.LMC,
		func(i int, _ topo.NodeID) route.LID { return base[i] })
	if err != nil {
		return nil, err
	}
	shape := hx.Cfg.S
	route.RefSSSPCore(t, route.SSSPOptions{
		MaskFor: func(_ topo.NodeID, off uint8) route.LinkMask {
			half := core.RuleFor(off)
			return func(l *topo.Link) bool {
				a, b := hx.Nodes[l.A], hx.Nodes[l.B]
				if a.Kind != topo.Switch || b.Kind != topo.Switch {
					return true
				}
				return !(core.InHalf(a.Coord, shape, half) && core.InHalf(b.Coord, shape, half))
			}
		},
	})
	if err := route.AssignVLs(t, 8); err != nil {
		return nil, err
	}
	t.Freeze()
	return t, nil
}

// firstTableDiff names the first difference between two tables' LIDs,
// LFTs, lane counts and SLs, or returns "".
func firstTableDiff(a, b *route.Tables) string {
	if !slices.Equal(a.BaseLID, b.BaseLID) || a.MaxLID() != b.MaxLID() {
		return "LID assignment differs"
	}
	if a.NumVL != b.NumVL {
		return fmt.Sprintf("NumVL %d, reference %d", a.NumVL, b.NumVL)
	}
	for _, sw := range a.G.Switches() {
		for lid := route.LID(0); lid <= a.MaxLID(); lid++ {
			if x, y := a.NextHop(sw, lid), b.NextHop(sw, lid); x != y {
				return fmt.Sprintf("LFT of switch %d toward LID %d: %d, reference %d", sw, lid, x, y)
			}
		}
	}
	return firstSLDiff(a, b)
}

// degradedHyperX builds a T=2 HyperX of shape s and multiplicities k with
// n switch links down.
func degradedHyperX(t *testing.T, s, k []int, n int, seed uint64) *topo.HyperX {
	t.Helper()
	hx := topo.NewHyperX(topo.HyperXConfig{S: s, K: k, T: 2, Bandwidth: 1e9, Latency: 1e-7})
	if _, err := topo.DegradeSwitchLinks(hx.Graph, n, seed); err != nil {
		t.Fatal(err)
	}
	return hx
}

// The engines that read the live-link index must build exactly the tables
// the port scans built: equal LIDs, LFTs, SL tables, lane counts and
// error text. The cases are the paper machines healthy and degraded,
// degraded lattices with parallel links, a fabric with a dead switch and
// its terminals detached, and hxmin stranding pairs. The small fabrics run
// at LMC 0 and 2, the paper machines at LMC 0 plus PARX's own LMC 2. The
// builds are single-threaded, so the race detector runs only the small
// fabrics, which take it seconds where the paper machines take a minute.
func TestLiveLinkEnginesMatchPortScans(t *testing.T) {
	switchDown := smallHyperX()
	for _, l := range switchDown.Nodes[switchDown.SwitchAt(1, 2)].Ports {
		if l != nil {
			l.Down = true
		}
	}
	stranded := smallHyperX()
	cutLink(stranded, stranded.SwitchAt(0, 0), stranded.SwitchAt(0, 1))
	k22 := degradedHyperX(t, []int{4, 4}, []int{2, 2}, 9, 5)
	k212 := degradedHyperX(t, []int{3, 3, 3}, []int{2, 1, 2}, 12, 7)
	type fabric struct {
		name  string
		pairs []enginePair
	}
	small := func(hx *topo.HyperX) []enginePair {
		ps := append(scanPairs(hx.Graph, hx, 0, []int{1, 8}), scanPairs(hx.Graph, hx, 2, []int{1, 8})...)
		if s := hx.Cfg.S; len(s) == 2 && s[0]%2 == 0 && s[1]%2 == 0 {
			ps = append(ps, parxPair(hx))
		}
		return ps
	}
	var fabrics []fabric
	for _, degrade := range []bool{false, true} {
		hx := topo.NewPaperHyperX(degrade, 3)
		ft := topo.NewPaperFatTree(degrade, 3)
		fabrics = append(fabrics,
			fabric{fmt.Sprintf("paper hyperx degraded=%v", degrade),
				append(scanPairs(hx.Graph, hx, 0, []int{8}), parxPair(hx))},
			fabric{fmt.Sprintf("paper fat-tree degraded=%v", degrade),
				scanPairs(ft.Graph, nil, 0, []int{8})})
	}
	fabrics = append(fabrics,
		fabric{"4x4 K=[2,2] degraded", small(k22)},
		fabric{"3x3x3 K=[2,1,2] degraded", small(k212)},
		fabric{"switch down", small(switchDown)},
		fabric{"hxmin stranding", small(stranded)},
	)
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			if raceEnabled && strings.HasPrefix(f.name, "paper") {
				t.Skip("paper-size builds under the race detector")
			}
			for _, p := range f.pairs {
				got, err := p.got()
				want, wantErr := p.want()
				if errText(err) != errText(wantErr) {
					t.Errorf("%s: error %q, reference %q", p.name, errText(err), errText(wantErr))
					continue
				}
				if err != nil {
					continue
				}
				if d := firstTableDiff(got, want); d != "" {
					t.Errorf("%s: %s", p.name, d)
				}
			}
		})
	}
}

// SSSPCore folds the path weights of each destination up its shortest-path
// tree, where the reference traces each source terminal's path. Under
// integer weights from a seeded 0-255 demand matrix with zeros, a permuted
// destination order and, optionally, a PARX-style mask that hides the
// switch links inside one half of the lattice (the dimension picked by the
// LID offset), both must build the same tables.
func TestSSSPCoreFoldMatchesPathTrace(t *testing.T) {
	for _, hx := range []*topo.HyperX{
		degradedHyperX(t, []int{4, 4}, []int{2, 2}, 9, 5),
		degradedHyperX(t, []int{3, 3, 3}, []int{2, 1, 2}, 12, 7),
	} {
		n := hx.NumTerminals()
		r := sim.NewRand(11)
		demand := make([][]float64, n)
		for i := range demand {
			demand[i] = make([]float64, n)
			for j := range demand[i] {
				if r.Intn(3) > 0 {
					demand[i][j] = float64(r.Intn(256))
				}
			}
		}
		weight := func(src, dst topo.NodeID) float64 {
			return demand[hx.TerminalIndex(src)][hx.TerminalIndex(dst)]
		}
		halfMask := func(_ topo.NodeID, off uint8) route.LinkMask {
			d := int(off) % hx.Dims()
			inHalf := func(n topo.NodeID) bool { return hx.Nodes[n].Coord[d] < hx.Cfg.S[d]/2 }
			return func(l *topo.Link) bool {
				if hx.Nodes[l.A].Kind != topo.Switch || hx.Nodes[l.B].Kind != topo.Switch {
					return true
				}
				return !(inHalf(l.A) && inHalf(l.B))
			}
		}
		for _, lmc := range []uint8{0, 2} {
			for _, masked := range []bool{false, true} {
				opts := route.SSSPOptions{PathWeight: weight, DstOrder: r.Perm(n)}
				if masked {
					opts.MaskFor = halfMask
				}
				got, err := route.NewTables(hx.Graph, "parx", lmc, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := route.NewTables(hx.Graph, "parx", lmc, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := route.SSSPCore(got, opts); err != nil {
					t.Fatal(err)
				}
				route.RefSSSPCore(want, opts)
				if d := firstTableDiff(got, want); d != "" {
					t.Errorf("%v lmc=%d masked=%v: %s", hx.Cfg.S, lmc, masked, d)
				}
			}
		}
	}
}

// With K parallel links between two switches, hxmin and hxnm pick the
// least-loaded parallel, so a switch's LFT entries toward a neighbour
// spread over the parallels evenly: the counts on any two differ by at
// most 1. At T=3 some neighbours' entries do not divide evenly, so both
// spreads occur.
func TestParallelLinksShareLFTEntries(t *testing.T) {
	for _, cfg := range []struct{ s, k []int }{{[]int{3, 3}, []int{2, 2}}, {[]int{4, 3}, []int{3, 2}}} {
		hx := topo.NewHyperX(topo.HyperXConfig{S: cfg.s, K: cfg.k, T: 3, Bandwidth: 1e9, Latency: 1e-7})
		for _, e := range []engineBuild{
			{"hxmin", func() (*route.Tables, error) { return route.HXMin(hx, 0) }},
			{"hxnm", func() (*route.Tables, error) { return route.HXNonMin(hx, 0, 8) }},
		} {
			tb, err := e.build()
			if err != nil {
				t.Fatalf("%v K=%v %s: %v", cfg.s, cfg.k, e.name, err)
			}
			entries := make([]int, 2*len(hx.Links))
			for _, sw := range hx.Switches() {
				for lid := route.LID(1); lid <= tb.MaxLID(); lid++ {
					if c := tb.NextHop(sw, lid); c != route.NoChannel {
						entries[c]++
					}
				}
			}
			// The parallel channels of each ordered (switch, neighbour) pair.
			parallels := map[[2]topo.NodeID][]topo.ChannelID{}
			for _, l := range hx.Links {
				if hx.Nodes[l.A].Kind != topo.Switch || hx.Nodes[l.B].Kind != topo.Switch {
					continue
				}
				ab, ba := [2]topo.NodeID{l.A, l.B}, [2]topo.NodeID{l.B, l.A}
				parallels[ab] = append(parallels[ab], l.Channel(l.A))
				parallels[ba] = append(parallels[ba], l.Channel(l.B))
			}
			for pair, chs := range parallels {
				if len(chs) < 2 {
					t.Fatalf("%v K=%v: switches %v share %d links", cfg.s, cfg.k, pair, len(chs))
				}
				lo, hi := entries[chs[0]], entries[chs[0]]
				for _, c := range chs[1:] {
					lo, hi = min(lo, entries[c]), max(hi, entries[c])
				}
				if hi == 0 || hi-lo > 1 {
					t.Errorf("%v K=%v %s: switch %d's LFT entries toward %d over its %d parallels range %d..%d",
						cfg.s, cfg.k, e.name, pair[0], pair[1], len(chs), lo, hi)
				}
			}
		}
	}
}

// An hxmin build allocates per switch and per pass, never per LFT entry:
// growing the lattice's terminals 16-fold leaves its allocation count
// within a small constant of the smaller build's.
func TestHXMinAllocationsDoNotGrowWithTerminals(t *testing.T) {
	allocs := func(terms int) float64 {
		hx := topo.NewHyperX(topo.HyperXConfig{S: []int{6, 4}, T: terms, Bandwidth: 1e9, Latency: 1e-7})
		return testing.AllocsPerRun(3, func() {
			if _, err := route.HXMin(hx, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(2), allocs(32)
	if many > few+64 {
		t.Errorf("hxmin on 6x4: %v allocations at T=2, %v at T=32; want at most %v", few, many, few+64)
	}
}

// Command topocheck builds the paper's two network planes, validates every
// routing engine on them (reachability, loop-freedom, deadlock-freedom,
// virtual-lane budget), and prints the Sec. 2.3-style fabric inventory.
//
// With -planes it instead builds a multi-plane machine from the given
// specs and validates each plane's tables independently:
//
//	topocheck -planes ft:ftree,hyperx:parx
//	topocheck -planes ft:updown,hx:parx -small
//
// The exit status is the CI contract: 0 only when every engine builds and
// validates clean; build errors, deadlock-prone tables and flag
// combinations it cannot honour (-small without -planes, -degrade n > 0
// with -planes) exit 1; a terminal pair left unreachable by an engine that
// promises full reachability exits 2, so CI can distinguish "routing
// broke" from "routing stranded traffic". Engines that document stranding
// as their trade-off (hxmin's restricted escape) report their unreachable
// pairs without failing the check.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

func main() {
	degrade := flag.Int("degrade", -1,
		"switch links to remove per plane: -1 = paper counts (15 HyperX / 197 Fat-Tree), 0 = pristine, n = exactly n (not with -planes)")
	seed := flag.Uint64("seed", 42, "degradation seed")
	planesF := flag.String("planes", "",
		"validate a multi-plane machine instead: comma-separated topology:routing[:name] specs (e.g. ft:ftree,hyperx:parx)")
	small := flag.Bool("small", false, "with -planes: use the 32-node test planes")
	flag.Parse()
	if err := checkFlags(*planesF, *small, *degrade); err != nil {
		fmt.Fprintf(os.Stderr, "topocheck: %v\n", err)
		os.Exit(1)
	}

	failed := false
	unreach := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Fprintf(os.Stderr, "topocheck: "+format+"\n", args...)
	}
	// Unreachable terminal pairs get their own exit code (2), distinct from
	// build/deadlock failures (1), and it takes precedence.
	failUnreach := func(format string, args ...any) {
		unreach = true
		fmt.Fprintf(os.Stderr, "topocheck: "+format+"\n", args...)
	}
	exit := func() {
		if unreach {
			os.Exit(2)
		}
		if failed {
			os.Exit(1)
		}
	}

	if *planesF != "" {
		checkPlanes(*planesF, *small, *degrade != 0, *seed, fail, failUnreach)
		exit()
		return
	}

	hx := topo.NewPaperHyperX(*degrade == -1, *seed)
	ft := topo.NewPaperFatTree(*degrade == -1, *seed)
	if *degrade > 0 {
		if _, err := topo.DegradeSwitchLinks(hx.Graph, *degrade, *seed); err != nil {
			fail("hyperx: %v", err)
		}
		if _, err := topo.DegradeSwitchLinks(ft.Graph, *degrade, *seed); err != nil {
			fail("fat-tree: %v", err)
		}
	}
	for _, p := range []struct {
		name string
		g    *topo.Graph
	}{{"hyperx", hx.Graph}, {"fat-tree", ft.Graph}} {
		if err := p.g.Validate(); err != nil {
			fail("%s: graph validation: %v", p.name, err)
		}
	}

	fmt.Println("== Fabric inventory (cf. paper Sec. 2.3) ==")
	inventory(hx.Graph, "HyperX 12x8 (7 nodes/switch)")
	census(topo.HyperXDimLinks(hx))
	survival(topo.HyperXDimSurvival(hx))
	fmt.Printf("  worst coordinate bisection: %.1f%% (paper: 57.1%%)\n\n",
		100*topo.HyperXWorstBisection(hx))
	inventory(ft.Graph, "Fat-Tree XGFT(3; 14,12,4; 1,18,6)")
	census(topo.FatTreeLevelLinks(ft))
	fmt.Println()

	cm := topo.DefaultCostModel()
	hxCost := topo.Cost(hx.Graph, cm, topo.PaperHyperXRack(hx))
	ftCost := topo.Cost(ft.Graph, cm, topo.PaperFatTreeRack(ft))
	fmt.Println("== Cost structure (Sec. 1/2.2 motivation, relative units) ==")
	fmt.Printf("HyperX:   %3d switches, %4d copper, %4d AOC  => %7.0f\n",
		hxCost.Switches, hxCost.Copper, hxCost.AOCs, hxCost.Total)
	fmt.Printf("Fat-Tree: %3d switches, %4d copper, %4d AOC  => %7.0f (%.1fx)\n\n",
		ftCost.Switches, ftCost.Copper, ftCost.AOCs, ftCost.Total, ftCost.Total/hxCost.Total)

	w := tabwriter.NewWriter(os.Stdout, 4, 0, 2, ' ', 0)
	fmt.Fprintln(w, "plane\tengine\tpaths\tunreach\tmaxHops\tavgHops\tmaxLoad\tVLs\tdeadlockFree")
	type job struct {
		plane string
		name  string
		// lossy engines document stranding as their trade-off: unreachable
		// pairs are reported, not failed (deadlock-freedom stays mandatory).
		lossy bool
		run   func() (*route.Tables, error)
	}
	jobs := []job{
		{"fat-tree", "ftree", false, func() (*route.Tables, error) { return route.FTree(ft, 0) }},
		{"fat-tree", "sssp", false, func() (*route.Tables, error) { return route.SSSP(ft.Graph, 0) }},
		{"hyperx", "dfsssp", false, func() (*route.Tables, error) { return route.DFSSSP(hx.Graph, 0, 8) }},
		{"hyperx", "updown", false, func() (*route.Tables, error) { return route.UpDown(hx.Graph, 0) }},
		{"hyperx", "lash", false, func() (*route.Tables, error) { return route.LASH(hx.Graph, 0, 8) }},
		{"hyperx", "nue-2vl", false, func() (*route.Tables, error) { return route.Nue(hx.Graph, 0, 2) }},
		{"hyperx", "parx", false, func() (*route.Tables, error) { return core.PARX(hx, core.Config{MaxVL: 8}) }},
		{"hyperx", "hxmin", true, func() (*route.Tables, error) { return route.HXMin(hx, 0) }},
		{"hyperx", "hxnm", false, func() (*route.Tables, error) { return route.HXNonMin(hx, 0, 8) }},
	}
	for _, j := range jobs {
		tb, err := j.run()
		if err != nil {
			fmt.Fprintf(w, "%s\t%s\tERROR: %v\n", j.plane, j.name, err)
			fail("%s/%s: build: %v", j.plane, j.name, err)
			continue
		}
		rep, err := route.Validate(tb)
		if err != nil {
			fmt.Fprintf(w, "%s\t%s\tERROR: %v\n", j.plane, j.name, err)
			fail("%s/%s: validate: %v", j.plane, j.name, err)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%.2f\t%d\t%d\t%v\n",
			j.plane, j.name, rep.Paths, rep.Unreachable, rep.MaxSwitchHops,
			rep.AvgSwitchHops, rep.MaxChannelLoad, rep.VLs, rep.DeadlockFree)
		w.Flush()
		if rep.Unreachable > 0 {
			if j.lossy {
				fmt.Printf("  note: %s/%s strands %d (src, dst-LID) pairs — its documented trade-off\n",
					j.plane, j.name, rep.Unreachable)
			} else {
				failUnreach("%s/%s: %d unreachable (src, dst-LID) pairs", j.plane, j.name, rep.Unreachable)
			}
		}
		if !rep.DeadlockFree {
			fail("%s/%s: tables are deadlock-prone", j.plane, j.name)
		}
	}
	exit()
}

// checkFlags rejects the flag combinations that would otherwise be ignored
// silently: the paper planes come in one size only, and a multi-plane
// machine is degraded by its builder's fixed counts, never by an exact n.
func checkFlags(planes string, small bool, degrade int) error {
	switch {
	case degrade < -1:
		return fmt.Errorf("-degrade %d: want -1 (paper counts), 0 (pristine) or a positive count", degrade)
	case planes == "" && small:
		return errors.New("-small needs -planes: the paper planes are built at full size only")
	case planes != "" && degrade > 0:
		return fmt.Errorf("-degrade %d cannot be combined with -planes: a multi-plane machine takes -degrade -1 (its fixed counts) or 0", degrade)
	}
	return nil
}

// checkPlanes builds the multi-plane machine described by the spec list
// and validates every plane's forwarding tables independently — each rail
// of a dual-rail machine must stand on its own, since a policy may route
// any message over any plane.
func checkPlanes(specList string, small, degrade bool, seed uint64, fail, failUnreach func(string, ...any)) {
	specs, err := exp.ParsePlaneSpecs(specList)
	if err != nil {
		fail("%v", err)
		return
	}
	m, err := exp.BuildMachine(exp.Combo{Name: "custom planes", Planes: specs},
		exp.MachineConfig{Small: small, Degrade: degrade, Seed: seed})
	if err != nil {
		fail("build: %v", err)
		return
	}
	fmt.Printf("== Multi-plane machine: %d planes, %d nodes each ==\n",
		len(m.Planes), m.G.NumTerminals())
	for i, p := range m.Planes {
		inventory(p.G, fmt.Sprintf("plane %d: %s", i, p.Spec.Label()))
		if p.HX != nil {
			survival(topo.HyperXDimSurvival(p.HX))
		}
	}
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 4, 0, 2, ' ', 0)
	fmt.Fprintln(w, "plane\tengine\tpaths\tunreach\tmaxHops\tavgHops\tmaxLoad\tVLs\tdeadlockFree")
	for _, p := range m.Planes {
		label := p.Spec.Label()
		rep, err := route.Validate(p.Tables)
		if err != nil {
			fmt.Fprintf(w, "%s\t%s\tERROR: %v\n", label, p.Spec.Routing, err)
			fail("%s: validate: %v", label, err)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%.2f\t%d\t%d\t%v\n",
			label, p.Spec.Routing, rep.Paths, rep.Unreachable, rep.MaxSwitchHops,
			rep.AvgSwitchHops, rep.MaxChannelLoad, rep.VLs, rep.DeadlockFree)
		w.Flush()
		if rep.Unreachable > 0 {
			if p.Spec.Routing == "hxmin" {
				fmt.Printf("  note: %s strands %d (src, dst-LID) pairs — its documented trade-off\n",
					label, rep.Unreachable)
			} else {
				failUnreach("%s: %d unreachable (src, dst-LID) pairs", label, rep.Unreachable)
			}
		}
		if !rep.DeadlockFree {
			fail("%s: tables are deadlock-prone", label)
		}
	}
}

func inventory(g *topo.Graph, name string) {
	term, sw, down := topo.CountLinks(g)
	fmt.Printf("%s:\n  switches=%d terminals=%d links(term)=%d links(switch)=%d degraded=%d diameter=%d\n",
		name, g.NumSwitches(), g.NumTerminals(), term, sw, down, topo.Diameter(g))
}

// survival prints the per-dimension path-survival census of a (possibly
// degraded) HyperX: how many switch pairs per dimension line still have
// their direct link, how many survive only via a 2-hop in-line detour (and
// whether hxmin's restricted low-coordinate detour exists), and how many
// are stranded within their line.
func survival(rows []topo.DimSurvival) {
	for _, r := range rows {
		fmt.Printf("  dim %d paths: direct=%d/%d detour=%d (restricted=%d) stranded=%d\n",
			r.Dim, r.Direct, r.Pairs, r.Escape, r.Restricted, r.Stranded)
	}
}

// census prints the per-dimension (HyperX) or per-level (fat-tree) link
// counts and sums them into the plane's degradation summary.
func census(rows []topo.LinkCensus) {
	var live, down int
	for _, r := range rows {
		fmt.Printf("  %-12s live=%-5d down=%-4d (%.1f%% degraded)\n",
			r.Name, r.Live, r.Down, 100*r.Degraded())
		live += r.Live
		down += r.Down
	}
	total := topo.LinkCensus{Live: live, Down: down}
	fmt.Printf("  degradation: %d of %d links down (%.1f%%)\n",
		down, live+down, 100*total.Degraded())
}

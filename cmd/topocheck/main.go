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
// as their trade-off (exp.RoutingEngine.Strands) report their unreachable
// pairs without failing the check.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is topocheck on a command line: it writes the report to stdout, the
// failures to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topocheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	degrade := fs.Int("degrade", -1,
		"switch links to remove per plane: -1 = paper counts (15 HyperX / 197 Fat-Tree), 0 = pristine, n = exactly n (not with -planes)")
	seed := fs.Uint64("seed", 42, "degradation seed")
	planesF := fs.String("planes", "",
		"validate a multi-plane machine instead: comma-separated topology:routing[:name] specs (e.g. ft:ftree,hyperx:parx)")
	small := fs.Bool("small", false, "with -planes: use the 32-node test planes")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	c := &checker{out: stdout, errs: stderr}
	switch err := checkFlags(*planesF, *small, *degrade); {
	case err != nil:
		c.fail(1, "%v", err)
	case *planesF != "":
		c.checkPlanes(*planesF, *small, *degrade != 0, *seed)
	default:
		c.checkPaperPlanes(*degrade, *seed)
	}
	return c.status
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

// checker writes one run's report and keeps its exit status: the highest
// failure code seen, so unreachable pairs (2) take precedence over build
// and deadlock failures (1).
type checker struct {
	out, errs io.Writer
	status    int
}

// fail reports a failure on stderr and raises the exit status to code.
func (c *checker) fail(code int, format string, args ...any) {
	c.status = max(c.status, code)
	fmt.Fprintf(c.errs, "topocheck: "+format+"\n", args...)
}

// checkPaperPlanes builds the paper's HyperX and Fat-Tree planes, prints
// their inventory and cost, and validates every engine of the engine
// table on the plane it is made for.
func (c *checker) checkPaperPlanes(degrade int, seed uint64) {
	hx := topo.NewPaperHyperX(degrade == -1, seed)
	ft := topo.NewPaperFatTree(degrade == -1, seed)
	for _, p := range []struct {
		name string
		g    *topo.Graph
	}{{"hyperx", hx.Graph}, {"fat-tree", ft.Graph}} {
		if degrade > 0 {
			if _, err := topo.DegradeSwitchLinks(p.g, degrade, seed); err != nil {
				c.fail(1, "%s: %v", p.name, err)
			}
		}
		if err := p.g.Validate(); err != nil {
			c.fail(1, "%s: graph validation: %v", p.name, err)
		}
	}

	fmt.Fprintln(c.out, "== Fabric inventory (cf. paper Sec. 2.3) ==")
	c.inventory(hx.Graph, "HyperX 12x8 (7 nodes/switch)")
	c.census(topo.HyperXDimLinks(hx))
	c.survival(topo.HyperXDimSurvival(hx))
	fmt.Fprintf(c.out, "  worst coordinate bisection: %.1f%% (paper: 57.1%%)\n\n",
		100*topo.HyperXWorstBisection(hx))
	c.inventory(ft.Graph, "Fat-Tree XGFT(3; 14,12,4; 1,18,6)")
	c.census(topo.FatTreeLevelLinks(ft))
	fmt.Fprintln(c.out)

	cm := topo.DefaultCostModel()
	hxCost := topo.Cost(hx.Graph, cm, topo.PaperHyperXRack(hx))
	ftCost := topo.Cost(ft.Graph, cm, topo.PaperFatTreeRack(ft))
	fmt.Fprintln(c.out, "== Cost structure (Sec. 1/2.2 motivation, relative units) ==")
	fmt.Fprintf(c.out, "HyperX:   %3d switches, %4d copper, %4d AOC  => %7.0f\n",
		hxCost.Switches, hxCost.Copper, hxCost.AOCs, hxCost.Total)
	fmt.Fprintf(c.out, "Fat-Tree: %3d switches, %4d copper, %4d AOC  => %7.0f (%.1fx)\n\n",
		ftCost.Switches, ftCost.Copper, ftCost.AOCs, ftCost.Total, ftCost.Total/hxCost.Total)

	var rows []row
	for _, e := range exp.Engines() {
		r := row{plane: "hyperx", p: &exp.Plane{G: hx.Graph, HX: hx}}
		if e.Topology == "fattree" {
			r = row{plane: "fat-tree", p: &exp.Plane{G: ft.Graph, FT: ft}}
		}
		r.p.Spec = exp.PlaneSpec{Name: r.plane + "/" + e.Name, Topology: e.Topology, Routing: e.Name}
		rows = append(rows, r)
	}
	c.validate(rows)
}

// checkPlanes builds the multi-plane machine described by the spec list
// and validates every plane's forwarding tables independently — each rail
// of a dual-rail machine must stand on its own, since a policy may route
// any message over any plane.
func (c *checker) checkPlanes(specList string, small, degrade bool, seed uint64) {
	specs, err := exp.ParsePlaneSpecs(specList)
	if err != nil {
		c.fail(1, "%v", err)
		return
	}
	m, err := exp.BuildMachine(exp.Combo{Name: "custom planes", Planes: specs},
		exp.MachineConfig{Small: small, Degrade: degrade, Seed: seed})
	if err != nil {
		c.fail(1, "build: %v", err)
		return
	}
	fmt.Fprintf(c.out, "== Multi-plane machine: %d planes, %d nodes each ==\n",
		len(m.Planes), m.G.NumTerminals())
	rows := make([]row, len(m.Planes))
	for i, p := range m.Planes {
		c.inventory(p.G, fmt.Sprintf("plane %d: %s", i, p.Spec.Label()))
		if p.HX != nil {
			c.survival(topo.HyperXDimSurvival(p.HX))
		}
		rows[i] = row{plane: p.Spec.Label(), p: p}
	}
	fmt.Fprintln(c.out)
	c.validate(rows)
}

// row is a plane under its name in the validation table's plane column;
// failures and notes name it by its label.
type row struct {
	plane string
	p     *exp.Plane
}

// validate routes every row through its plane's Rebuild (a built
// machine's planes get theirs from the table cache), validates the tables
// and prints them as one table, then a note per engine that strands pairs
// by design.
func (c *checker) validate(rows []row) {
	w := tabwriter.NewWriter(c.out, 4, 0, 2, ' ', 0)
	fmt.Fprintln(w, "plane\tengine\tpaths\tunreach\tmaxHops\tavgHops\tmaxLoad\tVLs\tdeadlockFree")
	var notes []string
	for _, r := range rows {
		label, engine := r.p.Spec.Label(), r.p.Spec.Routing
		tb, err := r.p.Rebuild()
		if err != nil {
			fmt.Fprintf(w, "%s\t%s\tERROR: %v\n", r.plane, engine, err)
			c.fail(1, "%s: build: %v", label, err)
			continue
		}
		rep, err := route.Validate(tb)
		if err != nil {
			fmt.Fprintf(w, "%s\t%s\tERROR: %v\n", r.plane, engine, err)
			c.fail(1, "%s: validate: %v", label, err)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%.2f\t%d\t%d\t%v\n",
			r.plane, engine, rep.Paths, rep.Unreachable, rep.MaxSwitchHops,
			rep.AvgSwitchHops, rep.MaxChannelLoad, rep.VLs, rep.DeadlockFree)
		if rep.Unreachable > 0 {
			if e, _ := exp.EngineFor(engine); e.Strands {
				notes = append(notes, fmt.Sprintf("  note: %s strands %d (src, dst-LID) pairs — its documented trade-off",
					label, rep.Unreachable))
			} else {
				c.fail(2, "%s: %d unreachable (src, dst-LID) pairs", label, rep.Unreachable)
			}
		}
		if !rep.DeadlockFree {
			c.fail(1, "%s: tables are deadlock-prone", label)
		}
	}
	w.Flush()
	for _, n := range notes {
		fmt.Fprintln(c.out, n)
	}
}

func (c *checker) inventory(g *topo.Graph, name string) {
	term, sw, down := topo.CountLinks(g)
	fmt.Fprintf(c.out, "%s:\n  switches=%d terminals=%d links(term)=%d links(switch)=%d degraded=%d diameter=%d\n",
		name, g.NumSwitches(), g.NumTerminals(), term, sw, down, topo.Diameter(g))
}

// survival prints the per-dimension path-survival census of a (possibly
// degraded) HyperX: how many switch pairs per dimension line still have
// their direct link, how many survive only via a 2-hop in-line detour (and
// whether hxmin's restricted low-coordinate detour exists), and how many
// are stranded within their line.
func (c *checker) survival(rows []topo.DimSurvival) {
	for _, r := range rows {
		fmt.Fprintf(c.out, "  dim %d paths: direct=%d/%d detour=%d (restricted=%d) stranded=%d\n",
			r.Dim, r.Direct, r.Pairs, r.Escape, r.Restricted, r.Stranded)
	}
}

// census prints the per-dimension (HyperX) or per-level (fat-tree) link
// counts and sums them into the plane's degradation summary.
func (c *checker) census(rows []topo.LinkCensus) {
	var live, down int
	for _, r := range rows {
		fmt.Fprintf(c.out, "  %-12s live=%-5d down=%-4d (%.1f%% degraded)\n",
			r.Name, r.Live, r.Down, 100*r.Degraded())
		live += r.Live
		down += r.Down
	}
	total := topo.LinkCensus{Live: live, Down: down}
	fmt.Fprintf(c.out, "  degradation: %d of %d links down (%.1f%%)\n",
		down, live+down, 100*total.Degraded())
}

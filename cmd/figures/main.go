// Command figures regenerates the paper's tables and figures on the
// simulated planes: one subcommand per figure, each with the flags that
// figure reads. A flag the figure does not read is an error, not a silent
// no-op; `figures <figure> -h` lists its flags.
//
// Examples:
//
//	figures 1                  # mpiGraph heatmaps (Fig. 1)
//	figures table1             # PARX LID-selection matrices
//	figures 4 -coll alltoall   # one IMB gain grid
//	figures 6 -app MILC        # one proxy-app panel
//	figures 7 -window 180      # the 3 h capacity study
//	figures all -small         # everything, CI-sized
//
// Full-scale regeneration (672 nodes, all sizes, 10 trials) reproduces the
// paper's layout but takes hours; -small, -nodes, -trials and -sizes trim
// it.
package main

import (
	"flag"
	"io"
	"os"
	"slices"
	"strings"

	"github.com/hpcsim/t2hx/internal/cli"
	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/figures"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// figure is one figure subcommand: the flags it reads besides -small,
// -seed, -csv and the profiling flags, and run, which measures and renders
// it.
type figure struct {
	name, summary, flags string
	run                  func(o *options) error
}

// figs lists the figures in the order all runs them.
var figs = []figure{
	{"1", "mpiGraph heatmaps of one 28-node rack (Fig. 1)", "no-degrade",
		func(o *options) error { return o.show(o.s.Fig1()) }},
	{"4", "IMB collective gain grids (Fig. 4)", "no-degrade nodes j trials sizes parx-demands coll",
		func(o *options) error {
			return each(o, o.coll, []string{"bcast", "gather", "scatter", "reduce", "allreduce", "alltoall"}, o.s.Fig4)
		}},
	{"5a", "Baidu DeepBench allreduce gain grid (Fig. 5a)", "no-degrade nodes j trials sizes parx-demands",
		func(o *options) error { return o.show(o.s.Fig5a()) }},
	{"5b", "IMB Barrier whiskers (Fig. 5b)", "no-degrade nodes j trials parx-demands",
		func(o *options) error { return o.show(o.s.Fig5b()) }},
	{"5c", "Netgauge effective bisection bandwidth whiskers (Fig. 5c)", "no-degrade nodes j ebb-samples",
		func(o *options) error { return o.show(o.s.Fig5c()) }},
	{"6", "proxy-app and x500 whiskers (Fig. 6)", "no-degrade nodes j trials parx-demands app",
		func(o *options) error {
			var apps []string
			for _, a := range workloads.Registry() {
				apps = append(apps, a.Abbrev)
			}
			return each(o, o.app, apps, o.s.Fig6)
		}},
	{"7", "capacity throughput of the 14-app mix (Fig. 7)", "no-degrade j window",
		func(o *options) error { return o.show(o.s.Fig7()) }},
	{"counters", "switch heatmaps and hot links, Fat-Tree vs HyperX", "no-degrade nodes coll",
		func(o *options) error { return o.show(o.s.FigCounters(o.coll)) }},
	{"planes", "single- vs dual-plane traffic shares", "no-degrade nodes",
		func(o *options) error { return o.show(o.s.FigPlanes()) }},
	{"degraded", "degraded-topology survival sweep", "j",
		func(o *options) error { return o.show(o.s.FigDegraded()) }},
}

// each shows measure(x) for x = only, or for every x in all when only is
// empty.
func each[R result](o *options, only string, all []string, measure func(string) (R, error)) error {
	if only != "" {
		all = []string{only}
	}
	for _, x := range all {
		if err := o.show(measure(x)); err != nil {
			return err
		}
	}
	return nil
}

func main() { os.Exit(dispatch(os.Args[1:])) }

// dispatch runs the subcommand args[0] names and returns the exit status.
func dispatch(args []string) int {
	cmds := []cli.Command{{Name: "table1", Summary: "PARX virtual destination LID choice (Table 1)",
		Run: func(args []string) error {
			if err := cli.Parse(cli.NewFlagSet("figures", "table1"), args); err != nil {
				return err
			}
			figures.Table1(os.Stdout)
			return nil
		}}}
	for _, f := range figs {
		cmds = append(cmds, cli.Command{Name: f.name, Summary: f.summary,
			Run: func(args []string) error { return run(f.name, args, false, []figure{f}) }})
	}
	cmds = append(cmds, cli.Command{Name: "all", Summary: "Table 1, then every figure in this order",
		Run: func(args []string) error { return run("all", args, true, figs) }})
	return cli.Dispatch("figures", cmds, args)
}

// run parses args against the union of the flags of sel, then prints
// Table 1 when table1 is set and measures and renders sel in order on one
// session.
func run(name string, args []string, table1 bool, sel []figure) error {
	fs := cli.NewFlagSet("figures", name)
	var flags []string
	for _, f := range sel {
		flags = append(flags, strings.Fields(f.flags)...)
	}
	o := &options{machine: cli.AddMachineFlags(fs, slices.Contains(flags, "no-degrade"))}
	for _, fl := range flags {
		if fs.Lookup(fl) == nil {
			o.addFlag(fs, fl)
		}
	}
	fs.StringVar(&o.csv, "csv", "", "also write each figure's data series as CSV into this directory")
	profile := cli.AddProfFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	return profile(func() error {
		var err error
		if o.p.Sizes, err = parseSizes(o.sizes); err != nil {
			return err
		}
		o.p.Small, o.p.Seed, o.p.Degrade = o.machine.Small, o.machine.Seed, !o.machine.NoDegrade
		if o.window > 0 {
			o.p.CapacityWindow = sim.Duration(o.window) * sim.Minute
		}
		o.s = figures.NewSession(o.p)
		if table1 {
			figures.Table1(os.Stdout)
		}
		for _, f := range sel {
			if err := f.run(o); err != nil {
				return err
			}
		}
		return nil
	})
}

// options holds every figure flag and the session they describe.
type options struct {
	p                     figures.Params
	machine               *cli.MachineFlags
	sizes, coll, app, csv string
	window                float64
	s                     *figures.Session
}

// addFlag registers the figure flag name.
func (o *options) addFlag(fs *flag.FlagSet, name string) {
	switch name {
	case "nodes":
		fs.IntVar(&o.p.MaxNodes, name, 0, "cap the node ladders (default 672, or 32 with -small)")
	case "j":
		fs.IntVar(&o.p.Workers, name, 0, "measurement workers (default GOMAXPROCS; output is identical at any -j)")
	case "trials":
		fs.IntVar(&o.p.Trials, name, 3, "trials per cell (paper: 10)")
	case "sizes":
		fs.StringVar(&o.sizes, name, "", "comma-separated message sizes (Fig. 4/5a)")
	case "parx-demands":
		fs.BoolVar(&o.p.PARXDemands, name, false, "re-route PARX per workload profile (Sec. 4.4.3; slow at full scale)")
	case "ebb-samples":
		fs.IntVar(&o.p.EBBSamples, name, 0, "Fig. 5c bisection samples (default 1000, or 50 with -small)")
	case "window":
		fs.Float64Var(&o.window, name, 0, "Fig. 7 window in minutes (default 180, or 2 with -small)")
	case "coll":
		fs.StringVar(&o.coll, name, "", "IMB collective (default: all six for Fig. 4, the grouped shift-incast for counters)")
	case "app":
		fs.StringVar(&o.app, name, "", "Fig. 6 app abbreviation (default: all twelve)")
	default:
		panic("figures: no flag " + name) // a typo in figs
	}
}

// result is a measured figure.
type result interface {
	Render(w io.Writer, csvDir string) error
}

// show renders a measured figure on stdout and into the -csv directory.
func (o *options) show(r result, err error) error {
	if err != nil {
		return err
	}
	return r.Render(os.Stdout, o.csv)
}

// parseSizes decodes -sizes strictly, like t2hx sweep -sizes: base-10
// byte counts of at least 1. An empty list keeps each figure's own sizes.
func parseSizes(s string) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	return exp.ParseInts("sizes", s, 1)
}

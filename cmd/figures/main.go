// Command figures regenerates the paper's tables and figures on the
// simulated planes.
//
// Examples:
//
//	figures -fig 1                  # mpiGraph heatmaps (Fig. 1)
//	figures -table 1                # PARX LID-selection matrices
//	figures -fig 4 -coll alltoall   # one IMB gain grid
//	figures -fig 6 -app MILC        # one proxy-app panel
//	figures -fig 7 -window 180      # the 3 h capacity study
//	figures -fig all -small         # everything, CI-sized
//
// Full-scale regeneration (672 nodes, all sizes, 10 trials) reproduces the
// paper's layout but takes hours; -small, -nodes, -trials and -sizes trim
// it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/figures"
	"github.com/hpcsim/t2hx/internal/prof"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// profSession is finalized by fatal() so error exits still flush the CPU
// profile instead of truncating it.
var profSession *prof.Session

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 1, 4, 5a, 5b, 5c, 6, 7, counters, planes, degraded, all")
	table := flag.Int("table", 0, "table to regenerate: 1")
	coll := flag.String("coll", "", "Fig. 4 collective (default: all six)")
	app := flag.String("app", "", "Fig. 6 app abbreviation (default: all twelve)")
	nodes := flag.Int("nodes", 0, "cap the node ladders (default 672, or 32 with -small)")
	trials := flag.Int("trials", 3, "trials per cell (paper: 10)")
	small := flag.Bool("small", false, "use 32-node test planes")
	seed := flag.Uint64("seed", 1, "master seed")
	sizes := flag.String("sizes", "", "comma-separated message sizes (Fig. 4/5a)")
	parxDemands := flag.Bool("parx-demands", false, "re-route PARX per workload profile (Sec. 4.4.3; slow at full scale)")
	window := flag.Float64("window", 0, "Fig. 7 window in minutes (default 180, or 2 with -small)")
	ebbSamples := flag.Int("ebb-samples", 0, "Fig. 5c bisection samples (default 1000, or 50 with -small)")
	csvDir := flag.String("csv", "", "also write each figure's data series as CSV into this directory")
	noDegrade := flag.Bool("no-degrade", false, "build ideal fabrics without the paper's missing cables")
	jobs := flag.Int("j", 0, "measurement workers for the grid/whisker figures (default GOMAXPROCS; output is identical at any -j)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	pprofHTTP := flag.String("pprof-http", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live inspection")
	flag.Parse()

	var err error
	profSession, err = prof.Start(prof.Options{
		CPUProfile: *cpuprofile, MemProfile: *memprofile, HTTPAddr: *pprofHTTP,
	})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := profSession.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
		}
	}()
	if *pprofHTTP != "" {
		fmt.Fprintf(os.Stderr, "pprof serving on http://%s/debug/pprof/\n", profSession.Addr())
	}

	p := figures.Params{
		Out: os.Stdout, MaxNodes: *nodes, Trials: *trials, Small: *small,
		Seed: *seed, Degrade: !*noDegrade, PARXDemands: *parxDemands,
		Workers: *jobs,
	}
	if *window > 0 {
		p.CapacityWindow = sim.Duration(*window) * sim.Minute
	}
	p.EBBSamples = *ebbSamples
	p.CSVDir = *csvDir
	p.Sizes, err = parseSizes(*sizes)
	check(err)
	s := figures.NewSession(p)

	if *table == 1 {
		check(s.Table1())
		if *fig == "" {
			return
		}
	}
	var run func(string)
	run = func(name string) {
		switch name {
		case "1":
			check(s.Fig1())
		case "4":
			ops := []string{"bcast", "gather", "scatter", "reduce", "allreduce", "alltoall"}
			if *coll != "" {
				ops = []string{*coll}
			}
			for _, op := range ops {
				check(s.Fig4(op))
			}
		case "5a":
			check(s.Fig5a())
		case "5b":
			check(s.Fig5b())
		case "5c":
			check(s.Fig5c())
		case "6":
			apps := []string{}
			if *app != "" {
				apps = []string{*app}
			} else {
				for _, a := range workloads.Registry() {
					apps = append(apps, a.Abbrev)
				}
			}
			for _, a := range apps {
				check(s.Fig6(a))
			}
		case "7":
			check(s.Fig7())
		case "counters":
			check(s.FigCounters(*coll))
		case "planes":
			check(s.FigPlanes())
		case "degraded":
			check(s.FigDegraded())
		case "all":
			check(s.Table1())
			for _, f := range []string{"1", "4", "5a", "5b", "5c", "6", "7", "counters", "planes", "degraded"} {
				run(f)
			}
		default:
			fatal(fmt.Errorf("unknown figure %q", name))
		}
	}
	if *fig == "" && *table == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *fig != "" {
		run(*fig)
	}
}

// parseSizes decodes -sizes strictly, like t2hx sweep -sizes: base-10
// byte counts of at least 1. An empty list keeps each figure's own sizes.
func parseSizes(s string) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	return exp.ParseInts("sizes", s, 1)
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	if perr := profSession.Stop(); perr != nil {
		fmt.Fprintln(os.Stderr, "figures:", perr)
	}
	os.Exit(1)
}

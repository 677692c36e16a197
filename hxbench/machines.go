package main

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

// buildMachine builds a combo's paper-scale machine. Untraced it is
// exp.BuildMachine itself. Traced it assembles the same machine from the
// public topology builders and exp.DefaultTableCache, so the topology
// builder and the routing engine (handed to the cache as a timed build
// closure, run only on a miss) get spans of their own. The workloads'
// digests hold the two paths to the same simulated output.
func buildMachine(c exp.Combo, cfg exp.MachineConfig, tr *tracer) (*exp.Machine, error) {
	if tr == nil {
		return exp.BuildMachine(c, cfg)
	}
	if cfg.Small || cfg.Demands != nil || cfg.Planes != nil {
		return nil, fmt.Errorf("traced machine build supports paper-scale planes only")
	}
	tr.begin(kBuildMachine)
	defer tr.end(kBuildMachine)
	specs := c.Planes
	if len(specs) == 0 {
		specs = []exp.PlaneSpec{{Topology: c.Topology, Routing: c.Routing}}
	}
	m := &exp.Machine{Combo: c, Cfg: cfg}
	for _, spec := range specs {
		p := &exp.Plane{Spec: spec}
		tr.begin(kTopo)
		switch spec.Topology {
		case "hyperx":
			p.HX = topo.NewPaperHyperX(cfg.Degrade, cfg.Seed)
			p.G = p.HX.Graph
		case "fattree":
			p.FT = topo.NewPaperFatTree(cfg.Degrade, cfg.Seed)
			p.G = p.FT.Graph
		}
		tr.end(kTopo)
		if p.G == nil {
			return nil, fmt.Errorf("unknown topology %q", spec.Topology)
		}
		var lmc uint8
		if spec.Routing == "parx" {
			lmc = core.LMC
		}
		tb, err := exp.DefaultTableCache.Get(p.G, spec.Routing, lmc, func() (*route.Tables, error) {
			tr.begin(kRoute)
			defer tr.end(kRoute)
			return routeEngine(p)
		})
		if err != nil {
			return nil, err
		}
		p.Tables = tb
		m.Planes = append(m.Planes, p)
	}
	prim := m.Planes[0]
	m.G, m.HX, m.FT, m.Tables = prim.G, prim.HX, prim.FT, prim.Tables
	return m, nil
}

// routeEngine runs the plane's routing engine with the parameters
// exp.Plane uses, for the engines the workloads route with.
func routeEngine(p *exp.Plane) (*route.Tables, error) {
	switch p.Spec.Routing {
	case "ftree":
		return route.FTree(p.FT, 0)
	case "sssp":
		return route.SSSP(p.G, 0)
	case "dfsssp":
		return route.DFSSSP(p.G, 0, 8)
	case "parx":
		return core.PARX(p.HX, core.Config{MaxVL: 8})
	}
	return nil, fmt.Errorf("unsupported routing %q", p.Spec.Routing)
}

// runJob is mpi.Run through the traced boundaries: mpi.Launch over a
// tracedMessenger, then the traced step loop.
func runJob(msgr fabric.Messenger, name string, ranks []topo.NodeID, progs []*mpi.Program, opts mpi.Options, tr *tracer, st *stepStats) (mpi.Result, error) {
	var res mpi.Result
	tr.begin(kLaunch)
	j, err := mpi.Launch(tracedMessenger{msgr, tr}, name, ranks, progs, opts, func(r mpi.Result) { res = r })
	tr.end(kLaunch)
	if err != nil {
		return res, err
	}
	runSteps(msgr.Engine(), tr, fabricsOf(msgr), st)
	if !j.Done() {
		return res, fmt.Errorf("mpi: job %q deadlocked", name)
	}
	return res, nil
}

// sendOps counts the point-to-point sends in a set of rank programs: the
// messages one run of the job submits.
func sendOps(progs []*mpi.Program) uint64 {
	var n uint64
	for _, p := range progs {
		for _, op := range p.Ops {
			if op.Kind == mpi.OpISend {
				n++
			}
		}
	}
	return n
}

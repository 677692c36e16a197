package exp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// PlaneSpec selects one network plane of a machine: a topology and the
// routing engine run on it. Name is the display label threaded into
// telemetry and traces; empty derives "<topology>/<routing>".
type PlaneSpec struct {
	Name     string
	Topology string // "fattree" | "hyperx"
	Routing  string // a name of the engine table (Engines)
}

// Label returns the plane's display name.
func (s PlaneSpec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Topology + "/" + s.Routing
}

// topologyAliases maps the CLI names of the plane topologies to
// PlaneSpec.Topology.
var topologyAliases = map[string]string{"ft": "fattree", "fattree": "fattree", "hx": "hyperx", "hyperx": "hyperx"}

// ParsePlaneSpecs parses a CLI plane list: comma-separated
// "topology:routing[:name]" entries, with the aliases ft/fattree and
// hx/hyperx — e.g. "ft:updown,hyperx:parx".
func ParsePlaneSpecs(s string) ([]PlaneSpec, error) {
	var specs []PlaneSpec
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		parts := strings.Split(ent, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("exp: plane spec %q: want topology:routing[:name]", ent)
		}
		spec := PlaneSpec{Topology: topologyAliases[parts[0]], Routing: parts[1]}
		if spec.Topology == "" {
			return nil, fmt.Errorf("exp: plane spec %q: unknown topology %q", ent, parts[0])
		}
		if _, err := EngineFor(spec.Routing); err != nil {
			return nil, fmt.Errorf("exp: plane spec %q: unknown routing %q", ent, spec.Routing)
		}
		if len(parts) == 3 {
			spec.Name = parts[2]
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("exp: empty plane list")
	}
	return specs, nil
}

// ParseInts parses the comma-separated integer list of CLI flag -name:
// each entry is a base-10 integer of at least min, with surrounding spaces
// allowed. Any other character rejects the entry, so "4k" or "1e6" is an
// error naming it rather than a silent 4 or 1.
func ParseInts(name, s string, min int64) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil || v < min {
			return nil, fmt.Errorf("bad -%s entry %q", name, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// Plane is one built and routed network plane of a machine: a graph, the
// forwarding tables computed over it, and the topology handle its routing
// engine needs. Machines own at least one; dual-plane machines (the
// TSUBAME2 reality: a Fat-Tree rail and a HyperX rail on the same nodes)
// own several, all with the same terminal count.
type Plane struct {
	Spec   PlaneSpec
	G      *topo.Graph
	HX     *topo.HyperX  // non-nil for HyperX planes
	FT     *topo.FatTree // non-nil for Fat-Tree planes
	Tables *route.Tables

	cfg MachineConfig
}

// BuildPlane constructs and routes one plane under the machine config
// (degradation, small-scale, seed, PARX demands). The small planes, a 4x4
// HyperX and a 32-terminal XGFT, lose 2 and 4 switch links when degraded.
func BuildPlane(spec PlaneSpec, cfg MachineConfig) (*Plane, error) {
	p := &Plane{Spec: spec, cfg: cfg}
	var err error
	smallDown := 2
	switch {
	case spec.Topology == "hyperx" && cfg.Small:
		p.HX, err = topo.BuildHyperX(topo.HyperXConfig{
			S: []int{4, 4}, T: 2,
			Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
		})
	case spec.Topology == "hyperx":
		p.HX = topo.NewPaperHyperX(cfg.Degrade, cfg.Seed)
	case spec.Topology == "fattree" && cfg.Small:
		p.FT, err = topo.BuildXGFT(topo.XGFTConfig{
			M: []int{2, 4, 4}, W: []int{1, 3, 2},
			Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
		})
		smallDown = 4
	case spec.Topology == "fattree":
		p.FT = topo.NewPaperFatTree(cfg.Degrade, cfg.Seed)
	default:
		return nil, fmt.Errorf("exp: unknown topology %q", spec.Topology)
	}
	if err != nil {
		return nil, err
	}
	if p.HX != nil {
		p.G = p.HX.Graph
	} else {
		p.G = p.FT.Graph
	}
	if cfg.Small && cfg.Degrade {
		if _, err := topo.DegradeSwitchLinks(p.G, smallDown, cfg.Seed); err != nil {
			return nil, err
		}
	}
	if p.Tables, err = p.Rebuild(); err != nil {
		return nil, err
	}
	return p, nil
}

// Rebuild returns routing tables for the graph's current link state — the
// subnet manager's recompute step during a re-sweep. Plane.Tables is left
// untouched; the caller decides what to swap where (see fabric.SwapTables
// and faults.SMConfig.Rebuild).
//
// Results come from DefaultTableCache: structurally identical planes with
// the same down mask share one frozen table build, rebound to this plane's
// graph. An engine that re-routes for a demand matrix bypasses the cache
// when the config carries one — the demands change table content but are
// not part of the cache key.
func (p *Plane) Rebuild() (*route.Tables, error) {
	e, _ := EngineFor(p.Spec.Routing) // buildTables reports an unknown name
	if e.Demands && p.cfg.Demands != nil {
		return p.buildTables()
	}
	return DefaultTableCache.Get(p.G, p.Spec.Routing, e.LMC, p.buildTables)
}

// buildTables runs the plane's routing engine uncached.
func (p *Plane) buildTables() (*route.Tables, error) {
	e, err := EngineFor(p.Spec.Routing)
	if err != nil {
		return nil, err
	}
	if !e.RunsOn(p.Spec.Topology) {
		name := map[string]string{"fattree": "Fat-Tree", "hyperx": "HyperX"}[e.Topology]
		return nil, fmt.Errorf("exp: %s routing needs a %s", e.Name, name)
	}
	return e.build(p)
}

// NewFabric builds a fabric for this plane on the given engine; the bfo
// PML is enabled for the engines that need it (PARX).
func (p *Plane) NewFabric(eng *sim.Engine, seed uint64) (*fabric.Fabric, error) {
	f := fabric.New(eng, p.Tables, fabric.DefaultParams(), seed)
	if e, _ := EngineFor(p.Spec.Routing); e.BFO {
		if err := f.EnableBFO(p.HX, 0); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// RoutingEngine is one row of the engine table: what a routing name
// builds, the plane it is made for, and what its fabric needs.
type RoutingEngine struct {
	Name     string
	Topology string // the plane it is made for: "fattree" | "hyperx"
	AnyGraph bool   // it routes any graph, so the other topology may run it too
	LMC      uint8  // 2^LMC LIDs per terminal
	BFO      bool   // its fabric runs the bfo PML, which picks among its LIDs
	Strands  bool   // leaving pairs unreachable on a degraded plane is its documented trade-off
	Demands  bool   // MachineConfig.Demands re-route it

	build func(p *Plane) (*route.Tables, error)
}

// engines is the engine table, the one place that knows these facts, in
// the order topocheck validates and the CLIs list it.
var engines = []RoutingEngine{
	{Name: "ftree", Topology: "fattree",
		build: func(p *Plane) (*route.Tables, error) { return route.FTree(p.FT, 0) }},
	{Name: "sssp", Topology: "fattree", AnyGraph: true,
		build: func(p *Plane) (*route.Tables, error) { return route.SSSP(p.G, 0) }},
	{Name: "dfsssp", Topology: "hyperx", AnyGraph: true,
		build: func(p *Plane) (*route.Tables, error) { return route.DFSSSP(p.G, 0, 8) }},
	{Name: "updown", Topology: "hyperx", AnyGraph: true,
		build: func(p *Plane) (*route.Tables, error) { return route.UpDown(p.G, 0) }},
	{Name: "lash", Topology: "hyperx", AnyGraph: true,
		build: func(p *Plane) (*route.Tables, error) { return route.LASH(p.G, 0, 8) }},
	{Name: "nue", Topology: "hyperx", AnyGraph: true,
		build: func(p *Plane) (*route.Tables, error) { return route.Nue(p.G, 0, 2) }},
	{Name: "parx", Topology: "hyperx", LMC: core.LMC, BFO: true, Demands: true,
		build: func(p *Plane) (*route.Tables, error) {
			return core.PARX(p.HX, core.Config{MaxVL: 8, Demands: p.cfg.Demands})
		}},
	{Name: "hxmin", Topology: "hyperx", Strands: true,
		build: func(p *Plane) (*route.Tables, error) { return route.HXMin(p.HX, 0) }},
	{Name: "hxnm", Topology: "hyperx",
		build: func(p *Plane) (*route.Tables, error) { return route.HXNonMin(p.HX, 0, 8) }},
}

// RunsOn reports whether the engine routes a plane of the topology.
func (e RoutingEngine) RunsOn(topology string) bool { return e.AnyGraph || e.Topology == topology }

// Engines returns the engine table in row order.
func Engines() []RoutingEngine { return slices.Clone(engines) }

// EngineFor returns the engine table's row for a routing name.
func EngineFor(name string) (RoutingEngine, error) {
	for _, e := range engines {
		if e.Name == name {
			return e, nil
		}
	}
	return RoutingEngine{}, fmt.Errorf("exp: unknown routing %q", name)
}

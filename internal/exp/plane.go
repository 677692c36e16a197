package exp

import (
	"fmt"
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
	Routing  string // "ftree" | "sssp" | "dfsssp" | "updown" | "lash" | "nue" | "parx" | "hxmin" | "hxnm"
}

// Label returns the plane's display name.
func (s PlaneSpec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Topology + "/" + s.Routing
}

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
		spec := PlaneSpec{Topology: parts[0], Routing: parts[1]}
		switch spec.Topology {
		case "ft", "fattree":
			spec.Topology = "fattree"
		case "hx", "hyperx":
			spec.Topology = "hyperx"
		default:
			return nil, fmt.Errorf("exp: plane spec %q: unknown topology %q", ent, spec.Topology)
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
// (degradation, small-scale, seed, PARX demands).
func BuildPlane(spec PlaneSpec, cfg MachineConfig) (*Plane, error) {
	p := &Plane{Spec: spec, cfg: cfg}
	switch spec.Topology {
	case "hyperx":
		if cfg.Small {
			var err error
			p.HX, err = topo.BuildHyperX(topo.HyperXConfig{
				S: []int{4, 4}, T: 2,
				Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
			})
			if err != nil {
				return nil, err
			}
			if cfg.Degrade {
				if _, err := topo.DegradeSwitchLinks(p.HX.Graph, 2, cfg.Seed); err != nil {
					return nil, err
				}
			}
		} else {
			p.HX = topo.NewPaperHyperX(cfg.Degrade, cfg.Seed)
		}
		p.G = p.HX.Graph
	case "fattree":
		if cfg.Small {
			var err error
			p.FT, err = topo.BuildXGFT(topo.XGFTConfig{
				M: []int{2, 4, 4}, W: []int{1, 3, 2},
				Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
			})
			if err != nil {
				return nil, err
			}
			if cfg.Degrade {
				if _, err := topo.DegradeSwitchLinks(p.FT.Graph, 4, cfg.Seed); err != nil {
					return nil, err
				}
			}
		} else {
			p.FT = topo.NewPaperFatTree(cfg.Degrade, cfg.Seed)
		}
		p.G = p.FT.Graph
	default:
		return nil, fmt.Errorf("exp: unknown topology %q", spec.Topology)
	}

	var err error
	p.Tables, err = p.Rebuild()
	if err != nil {
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
// graph. PARX with a demand matrix bypasses the cache — the demands change
// table content but are not part of the cache key.
func (p *Plane) Rebuild() (*route.Tables, error) {
	if p.Spec.Routing == "parx" && p.cfg.Demands != nil {
		return p.buildTables()
	}
	var lmc uint8
	if p.Spec.Routing == "parx" {
		lmc = core.LMC
	}
	return DefaultTableCache.Get(p.G, p.Spec.Routing, lmc, p.buildTables)
}

// buildTables runs the plane's routing engine uncached.
func (p *Plane) buildTables() (*route.Tables, error) {
	switch p.Spec.Routing {
	case "ftree":
		if p.FT == nil {
			return nil, fmt.Errorf("exp: ftree routing needs a Fat-Tree")
		}
		return route.FTree(p.FT, 0)
	case "sssp":
		return route.SSSP(p.G, 0)
	case "dfsssp":
		return route.DFSSSP(p.G, 0, 8)
	case "updown":
		return route.UpDown(p.G, 0)
	case "lash":
		return route.LASH(p.G, 0, 8)
	case "nue":
		return route.Nue(p.G, 0, 2)
	case "hxmin":
		if p.HX == nil {
			return nil, fmt.Errorf("exp: hxmin routing needs a HyperX")
		}
		return route.HXMin(p.HX, 0)
	case "hxnm":
		if p.HX == nil {
			return nil, fmt.Errorf("exp: hxnm routing needs a HyperX")
		}
		return route.HXNonMin(p.HX, 0, 8)
	case "parx":
		if p.HX == nil {
			return nil, fmt.Errorf("exp: PARX needs a HyperX")
		}
		return core.PARX(p.HX, core.Config{MaxVL: 8, Demands: p.cfg.Demands})
	default:
		return nil, fmt.Errorf("exp: unknown routing %q", p.Spec.Routing)
	}
}

// NewFabric builds a fabric for this plane on the given engine; the bfo
// PML is enabled automatically for PARX.
func (p *Plane) NewFabric(eng *sim.Engine, seed uint64) (*fabric.Fabric, error) {
	f := fabric.New(eng, p.Tables, fabric.DefaultParams(), seed)
	if p.Spec.Routing == "parx" {
		if err := f.EnableBFO(p.HX, 0); err != nil {
			return nil, err
		}
	}
	return f, nil
}

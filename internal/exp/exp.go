// Package exp is the experiment harness: it assembles the paper's five
// topology/routing/placement combinations (Sec. 4.4.3), runs workloads over
// the capability-scaling ladders with repeated trials (Sec. 4.4.1), and
// reduces the timings to the statistics the paper plots — min/median/
// quartiles/max whiskers and the relative performance gain over the
// "Fat-Tree / ftree / linear" baseline.
package exp

import (
	"fmt"
	"sort"
	"sync"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/place"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// Combo is one of the evaluated machine configurations: either a single
// topology/routing pair, or a multi-plane machine described by Planes.
type Combo struct {
	Name      string
	Topology  string // "fattree" | "hyperx"
	Routing   string // "ftree" | "sssp" | "dfsssp" | "parx"
	Placement place.Strategy

	// Planes, when non-empty, makes this a multi-plane combo: each spec
	// is one rail attached to the same nodes, and Topology/Routing are
	// ignored. Policy names the fabric.SelectionPolicy that picks the
	// plane per message (fabric.ParsePolicy syntax); empty means single
	// (all traffic on plane 0).
	Planes []PlaneSpec
	Policy string
}

// PaperCombos returns the five single-plane combinations of Sec. 4.4.3 in
// paper order; index 0 is the baseline. The dual-plane machine the paper
// actually operated is DualPlaneCombo (kept out of this list so per-combo
// figures and tests keep their historical five columns); AllCombos
// returns both.
func PaperCombos() []Combo {
	return []Combo{
		{Name: "Fat-Tree / ftree / linear", Topology: "fattree", Routing: "ftree", Placement: place.Linear},
		{Name: "Fat-Tree / SSSP / clustered", Topology: "fattree", Routing: "sssp", Placement: place.Clustered},
		{Name: "HyperX / DFSSSP / linear", Topology: "hyperx", Routing: "dfsssp", Placement: place.Linear},
		{Name: "HyperX / DFSSSP / random", Topology: "hyperx", Routing: "dfsssp", Placement: place.Random},
		{Name: "HyperX / PARX / clustered", Topology: "hyperx", Routing: "parx", Placement: place.Clustered},
	}
}

// DualPlaneCombo is the machine the paper actually operated (Sec. 2):
// TSUBAME2's compute nodes kept their first rail on the 3-level Fat-Tree
// (ftree routing) while the second rail was rebuilt into the 12x8 HyperX
// driven by PARX. The sizesplit policy generalizes PARX's message-size
// LID switch to plane granularity: latency-bound messages ride the
// diameter-2 HyperX, bandwidth-bound ones the full-bisection Fat-Tree.
func DualPlaneCombo() Combo {
	return Combo{
		Name:      "TSUBAME2 dual-plane / ftree+parx / sizesplit",
		Placement: place.Linear,
		Planes: []PlaneSpec{
			{Name: "fattree", Topology: "fattree", Routing: "ftree"},
			{Name: "hyperx", Topology: "hyperx", Routing: "parx"},
		},
		Policy: "sizesplit",
	}
}

// AllCombos returns the five paper combos followed by the dual-plane
// machine configuration.
func AllCombos() []Combo { return append(PaperCombos(), DualPlaneCombo()) }

// Machine is a built and routed machine, reusable across runs (the
// routing tables are read-only at run time). It owns one or more network
// planes; Planes[0] is the primary plane, whose terminal NodeIDs are the
// machine's canonical addresses (placement, workloads and the Messenger
// API all speak primary-plane IDs).
type Machine struct {
	Combo  Combo
	Cfg    MachineConfig
	Planes []*Plane

	// G/HX/FT/Tables mirror the primary plane, preserving the
	// single-plane API every existing caller was built against.
	G      *topo.Graph
	HX     *topo.HyperX  // non-nil for HyperX primary planes
	FT     *topo.FatTree // non-nil for Fat-Tree primary planes
	Tables *route.Tables
}

// MachineConfig controls plane construction.
type MachineConfig struct {
	// Degrade removes the paper's broken-cable counts (Sec. 2.3).
	Degrade bool
	// Seed drives degradation and placement randomness.
	Seed uint64
	// Demands optionally re-routes PARX for a communication profile
	// (ignored by other engines).
	Demands core.Demands
	// Small builds a scaled-down machine (4x4 HyperX / 4-ary tree with 32
	// terminals) for tests and benches.
	Small bool
	// Planes overrides the combo's plane list (multi-plane machine spec).
	Planes []PlaneSpec
}

// BuildMachine constructs every plane of a combo. The plane list resolves
// as MachineConfig.Planes, then Combo.Planes, then the single plane named
// by Combo.Topology/Routing; all planes must attach the same number of
// terminals. The machine is the caller's own: runs that set its links
// down (fault scenarios, degraded variants) build it here, while runs
// that only read a machine share one through a MachineCache.
func BuildMachine(c Combo, cfg MachineConfig) (*Machine, error) {
	m := &Machine{Combo: c, Cfg: cfg}
	specs := cfg.Planes
	if len(specs) == 0 {
		specs = c.Planes
	}
	if len(specs) == 0 {
		specs = []PlaneSpec{{Topology: c.Topology, Routing: c.Routing}}
	}
	for _, spec := range specs {
		p, err := BuildPlane(spec, cfg)
		if err != nil {
			return nil, err
		}
		m.Planes = append(m.Planes, p)
	}
	prim := m.Planes[0]
	for _, p := range m.Planes[1:] {
		if p.G.NumTerminals() != prim.G.NumTerminals() {
			return nil, fmt.Errorf("exp: plane %s attaches %d terminals, plane %s attaches %d — planes must serve the same nodes",
				p.Spec.Label(), p.G.NumTerminals(), prim.Spec.Label(), prim.G.NumTerminals())
		}
	}
	m.G, m.HX, m.FT, m.Tables = prim.G, prim.HX, prim.FT, prim.Tables
	return m, nil
}

// MachineCache shares built machines between runs that only read them.
// Get builds each (combo, config) once, under a per-key sync.Once as
// TableCache builds tables, and hands every caller the same *Machine.
// A cached machine is read-only: callers place ranks on it and build
// their own engine, fabric and telemetry over it, but must not set its
// links down. A config with Demands (PARX's traffic profile) bypasses
// the cache, as it bypasses TableCache. The zero value is ready to use.
type MachineCache struct {
	mu      sync.Mutex
	entries map[string]*machineEntry
}

type machineEntry struct {
	once sync.Once
	m    *Machine
	err  error
}

// Get returns the machine BuildMachine(c, cfg) builds, building it on the
// first call for its key. Build errors are cached for the key as well.
func (mc *MachineCache) Get(c Combo, cfg MachineConfig) (*Machine, error) {
	if cfg.Demands != nil {
		return BuildMachine(c, cfg)
	}
	// Every field of both values, Combo.Planes included, is part of the
	// key: the machine carries the combo (placement, policy) along.
	key := fmt.Sprintf("%#v|%#v", c, cfg)
	mc.mu.Lock()
	e, ok := mc.entries[key]
	if !ok {
		if mc.entries == nil {
			mc.entries = make(map[string]*machineEntry)
		}
		e = &machineEntry{}
		mc.entries[key] = e
	}
	mc.mu.Unlock()
	e.once.Do(func() { e.m, e.err = BuildMachine(c, cfg) })
	return e.m, e.err
}

// Primary returns the machine's primary plane (Planes[0]).
func (m *Machine) Primary() *Plane { return m.Planes[0] }

// MultiPlane reports whether the machine was built with more than one
// plane.
func (m *Machine) MultiPlane() bool { return len(m.Planes) > 1 }

// PolicySpec resolves the machine's plane-selection policy string: the
// combo's, default "single".
func (m *Machine) PolicySpec() string {
	if m.Combo.Policy != "" {
		return m.Combo.Policy
	}
	return "single"
}

// NewFabric creates a fresh single-plane fabric (own engine and flow
// state) over the machine's primary plane; the bfo PML is enabled
// automatically for PARX.
func (m *Machine) NewFabric(seed uint64) (*fabric.Fabric, error) {
	return m.Primary().NewFabric(sim.NewEngine(), seed)
}

// NewMultiFabric creates a fresh multi-plane fabric: one engine shared by
// per-plane fabrics, with sends routed by the machine's policy. Plane 0's
// fabric is seeded exactly like NewFabric's, so the single policy on a
// multi-fabric reproduces a plain single-plane run byte for byte.
func (m *Machine) NewMultiFabric(seed uint64) (*fabric.MultiFabric, error) {
	eng := sim.NewEngine()
	planes := make([]*fabric.Fabric, 0, len(m.Planes))
	names := make([]string, 0, len(m.Planes))
	for i, p := range m.Planes {
		s := seed
		if i > 0 {
			// Decorrelate secondary planes' PML randomness from plane 0
			// without touching the primary's seed.
			s = seed + uint64(i)*0x9e3779b97f4a7c15
		}
		f, err := p.NewFabric(eng, s)
		if err != nil {
			return nil, err
		}
		planes = append(planes, f)
		names = append(names, p.Spec.Label())
	}
	pol, err := fabric.ParsePolicy(m.PolicySpec(), len(planes))
	if err != nil {
		return nil, err
	}
	return fabric.NewMulti(planes, names, pol)
}

// NewMessenger creates the transport for a run: a plain fabric for
// single-plane machines (byte-for-byte the historical behaviour), a
// MultiFabric for multi-plane ones.
func (m *Machine) NewMessenger(seed uint64) (fabric.Messenger, error) {
	if !m.MultiPlane() {
		return m.NewFabric(seed)
	}
	return m.NewMultiFabric(seed)
}

// AttachTelemetry builds one collector per plane of the machine and
// attaches them to msgr, a messenger built on m (NewMessenger). A
// single-plane machine's collector is unnamed, so its exports read byte
// for byte as a lone collector's: no plane name and no "machine" line.
func (m *Machine) AttachTelemetry(msgr fabric.Messenger, opts telemetry.Options) (*telemetry.Multi, error) {
	gs := make([]*topo.Graph, len(m.Planes))
	var names []string
	for i, p := range m.Planes {
		gs[i] = p.G
		if m.MultiPlane() {
			names = append(names, p.Spec.Label())
		}
	}
	tm := telemetry.NewMulti(gs, names, opts)
	switch f := msgr.(type) {
	case *fabric.MultiFabric:
		return tm, f.AttachTelemetry(tm)
	case *fabric.Fabric:
		if !m.MultiPlane() {
			f.AttachTelemetry(tm.Planes[0])
			return tm, nil
		}
	}
	return nil, fmt.Errorf("exp: cannot attach telemetry for %d planes to a %T", len(m.Planes), msgr)
}

// Place selects n nodes per the combo's placement strategy.
func (m *Machine) Place(n int, seed uint64) ([]topo.NodeID, error) {
	return place.Place(m.Combo.Placement, m.G.Terminals(), n, seed)
}

// Stats are the whisker-plot statistics of Figs. 5b/5c/6.
type Stats struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
}

// Summarize computes whisker statistics.
func Summarize(vals []float64) Stats {
	if len(vals) == 0 {
		return Stats{}
	}
	v := append([]float64{}, vals...)
	sort.Float64s(v)
	q := func(p float64) float64 {
		idx := p * float64(len(v)-1)
		lo := int(idx)
		hi := lo + 1
		if hi >= len(v) {
			return v[lo]
		}
		frac := idx - float64(lo)
		return v[lo]*(1-frac) + v[hi]*frac
	}
	s := Stats{N: len(v), Min: v[0], Max: v[len(v)-1], Q1: q(0.25), Median: q(0.5), Q3: q(0.75)}
	for _, x := range v {
		s.Mean += x
	}
	s.Mean /= float64(len(v))
	return s
}

// Best extracts the paper's "absolute best observed" value: min for
// lower-is-better metrics, max otherwise.
func (s Stats) Best(better workloads.Direction) float64 {
	if better == workloads.HigherIsBetter {
		return s.Max
	}
	return s.Min
}

// Gain is the relative performance gain over a baseline (Hoefler & Belli):
// positive means the candidate beats the baseline, for either metric
// direction.
func Gain(baseline, candidate float64, better workloads.Direction) float64 {
	if baseline == 0 {
		return 0
	}
	if better == workloads.HigherIsBetter {
		return candidate/baseline - 1
	}
	return baseline/candidate - 1
}

// TrialJitter is the compute-phase lognormal sigma of repeated
// measurements: the paper's run-to-run variability.
const TrialJitter = 0.02

// TrialSpec describes one measurement cell: a workload instance run some
// number of times on a machine.
type TrialSpec struct {
	Machine *Machine
	Nodes   int
	Trials  int
	Seed    uint64
	// Jitter is the lognormal sigma for compute phases; the paper's
	// run-to-run variability. Zero keeps runs identical.
	Jitter float64
	// Build constructs the workload instance, once per cell: instances are
	// read-only at run time (mpi.Run never mutates Progs), and jitter is
	// drawn by the run, not the builder.
	Build func(n int) (*workloads.Instance, error)
	// Attach, when set, observes each trial's fresh transport before the
	// run starts — the hook the CLI uses to attach a telemetry collector
	// (typically to the final trial only, so counters and trace cover one
	// run rather than overlapping engine timelines). The messenger is a
	// *fabric.Fabric for single-plane machines and a *fabric.MultiFabric
	// for multi-plane ones; type-switch to reach plane internals.
	Attach func(trial int, f fabric.Messenger)
}

// RunTrials executes the cell and returns the per-trial metric values.
// The placement is fixed across trials (like rerunning a job in the same
// allocation); jitter and PML randomness vary by trial.
func RunTrials(spec TrialSpec) ([]float64, *workloads.Instance, error) {
	if spec.Trials < 1 {
		spec.Trials = 1
	}
	ranks, err := spec.Machine.Place(spec.Nodes, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	inst, err := spec.Build(spec.Nodes)
	if err != nil {
		return nil, nil, err
	}
	var vals []float64
	for t := 0; t < spec.Trials; t++ {
		f, err := spec.Machine.NewMessenger(spec.Seed + uint64(t)*7919)
		if err != nil {
			return nil, nil, err
		}
		if spec.Attach != nil {
			spec.Attach(t, f)
		}
		res, err := mpi.Run(f, "trial", ranks, inst.Progs, mpi.Options{
			ComputeJitterSigma: spec.Jitter,
			Seed:               spec.Seed + uint64(t)*104729,
		})
		if err != nil {
			return nil, nil, err
		}
		vals = append(vals, inst.Score(res.Elapsed))
	}
	return vals, inst, nil
}

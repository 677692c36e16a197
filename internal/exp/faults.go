package exp

import (
	"errors"
	"fmt"

	"github.com/hpcsim/t2hx/internal/faults"
	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// FaultSpec describes one resilience experiment: a workload run twice on
// the same machine and placement — once fault-free for the baseline, once
// with link failures injected mid-run and the subnet manager re-sweeping
// the combo's routing engine around them.
type FaultSpec struct {
	Machine *Machine
	Nodes   int
	// Failures is the number of runtime link failures. Zero selects the
	// paper's broken-cable count for the topology (15 HyperX / 197
	// Fat-Tree), scaled down on Small machines.
	Failures int
	Seed     uint64
	// Detect/Sweep override the SM model's delays; zero keeps defaults
	// (1 ms detection, 4 ms sweep).
	Detect, Sweep sim.Duration
	// Build constructs the workload both runs execute.
	Build func(n int) (*workloads.Instance, error)
	// Telemetry, when set, is attached to the faulted run's fabric:
	// injected faults appear as trace instants, SM sweeps as spans, and
	// the counters/FCT records cover the run that rode out the outage.
	Telemetry *telemetry.Collector
	// Schedule, when non-empty, is the exact fault timeline to inject,
	// overriding the seeded PlanLinkFailures plan. Degraded sweeps use it
	// to replay prefixes of one shared failure chain.
	Schedule faults.Schedule
	// Baseline, when nonzero, is a previously measured fault-free makespan
	// for this (machine, workload, nodes): the baseline run is skipped and
	// this value calibrates failure timing and the slowdown figure. Sweeps
	// that run many variants of one cell share a single baseline this way.
	Baseline sim.Duration
}

// Typed FaultSpec validation errors, checked with errors.Is.
var (
	// ErrNilMachine reports a FaultSpec without a machine.
	ErrNilMachine = errors.New("exp: fault spec has no machine")
	// ErrNilBuild reports a FaultSpec without a workload builder.
	ErrNilBuild = errors.New("exp: fault spec has no workload builder")
	// ErrBadFailures reports a negative failure count or one exceeding the
	// machine's live switch links.
	ErrBadFailures = errors.New("exp: fault spec failure count out of range")
	// ErrBadNodes reports a non-positive node count or one exceeding the
	// machine's terminals.
	ErrBadNodes = errors.New("exp: fault spec node count out of range")
)

// Validate checks a spec's shape before any simulator state is built, so a
// bad batch entry fails up front with a typed error instead of deep inside
// the run. Failures == 0 is valid (it selects the paper default).
func (spec FaultSpec) Validate() error {
	if spec.Machine == nil {
		return ErrNilMachine
	}
	if spec.Build == nil {
		return ErrNilBuild
	}
	if spec.Failures < 0 {
		return fmt.Errorf("%w: %d", ErrBadFailures, spec.Failures)
	}
	if live := len(spec.Machine.G.LiveSwitchLinks()); spec.Failures > live {
		return fmt.Errorf("%w: %d requested, machine has %d live switch links",
			ErrBadFailures, spec.Failures, live)
	}
	if spec.Nodes <= 0 || spec.Nodes > spec.Machine.G.NumTerminals() {
		return fmt.Errorf("%w: %d nodes on a %d-terminal machine",
			ErrBadNodes, spec.Nodes, spec.Machine.G.NumTerminals())
	}
	return nil
}

// smallMachineFailures keeps scaled-down planes connected: the 4x4 HyperX
// has 48 inter-switch links, the small XGFT 40.
const smallMachineFailures = 3

// DefaultFailures returns the failure count a zero FaultSpec.Failures
// selects for the machine: the paper's count for the topology of the
// primary plane, which the scenario faults.
func DefaultFailures(m *Machine) int {
	if m.Cfg.Small {
		return smallMachineFailures
	}
	if m.HX != nil {
		return topo.PaperHyperXMissingAOCs
	}
	return topo.PaperFatTreeMissingLinks
}

// FaultResult aggregates what happened across the two runs.
type FaultResult struct {
	Baseline sim.Duration // fault-free makespan
	Faulted  sim.Duration // makespan with failures injected
	Failures int          // link failures injected

	// Sweeps is the SM's full record; Latencies the outage windows of the
	// successful ones.
	Sweeps    []faults.Sweep
	Latencies []sim.Duration

	// Fabric-level damage accounting for the faulted run.
	TornDown, Retries, GiveUps uint64
	Messages, Delivered        uint64

	// Goodput (delivered payload bytes/s) before the first failure, during
	// the outage (first failure to the last table swap), and after.
	GoodputBefore, GoodputDuring, GoodputAfter float64
}

// Slowdown is the makespan inflation the failures caused.
func (r FaultResult) Slowdown() float64 {
	if r.Baseline == 0 {
		return 0
	}
	return float64(r.Faulted)/float64(r.Baseline) - 1
}

// SweepStats summarizes the outage windows (values in seconds).
func (r FaultResult) SweepStats() Stats {
	vals := make([]float64, len(r.Latencies))
	for i, d := range r.Latencies {
		vals[i] = float64(d)
	}
	return Summarize(vals)
}

// RunFaultBatch runs several fault scenarios over the runner's pool and
// returns their results in spec order. Every spec must reference its OWN
// machine: the scenario mutates the machine's graph link state mid-run, so
// sharing one machine across concurrent specs would race. Determinism
// comes from each spec's explicit Seed (the pool's derived cell seeds are
// unused here).
//
// One failing spec does not discard the others: every scenario runs to
// completion, completed results are returned in place (a failed spec's slot
// carries whatever partial result its scenario produced, possibly nil), and
// the per-spec errors come back joined. Structural problems — shared
// machines, specs failing Validate — are rejected before anything runs.
func RunFaultBatch(r Runner, specs []FaultSpec) ([]*FaultResult, error) {
	var verrs []error
	for i := range specs {
		for j := range specs[:i] {
			if specs[i].Machine != nil && specs[i].Machine == specs[j].Machine {
				return nil, fmt.Errorf("exp: fault specs %d and %d share a machine; each needs its own", j, i)
			}
		}
		if err := specs[i].Validate(); err != nil {
			verrs = append(verrs, fmt.Errorf("exp: fault spec %d: %w", i, err))
		}
	}
	if len(verrs) > 0 {
		return nil, errors.Join(verrs...)
	}
	cells := make([]Cell, len(specs))
	for i := range specs {
		i := i
		cells[i] = Cell{
			Label: specs[i].Machine.Combo.Name,
			Run:   func(uint64) (any, error) { return RunFaultScenario(specs[i]) },
		}
	}
	res, err := r.RunAll(cells)
	out := make([]*FaultResult, len(specs))
	for i, cr := range res {
		if fr, ok := cr.Value.(*FaultResult); ok {
			out[i] = fr
		}
	}
	return out, err
}

// RunFaultScenario executes the experiment against the machine's primary
// plane (whole-plane failover across a multi-plane machine is exercised
// separately, via fabric.MultiFabric with a failover policy and
// faults.PlaneOutage). The plane's graph is mutated during the faulted run
// and restored before returning, so machines remain reusable.
//
// An error from the faulted run (a rank wedged beyond the retry budget) is
// returned as-is: that outcome is the experiment failing, not an
// infrastructure problem.
func RunFaultScenario(spec FaultSpec) (*FaultResult, error) {
	m := spec.Machine
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Failures == 0 && spec.Schedule == nil {
		spec.Failures = DefaultFailures(m)
	}

	// Fault-free baseline: calibrates both the result's slowdown figure and
	// where in the run the failures land. A spec carrying a pre-measured
	// Baseline (sweeps amortizing one baseline over many variants) skips
	// the run.
	base := spec.Baseline
	if base == 0 {
		var err error
		if base, err = runBaseline(m, spec.Nodes, spec.Seed, spec.Build); err != nil {
			return nil, err
		}
	}
	ranks, err := m.Place(spec.Nodes, spec.Seed)
	if err != nil {
		return nil, err
	}

	// Spread the failures over the middle half of the baseline makespan, so
	// they hit a busy fabric rather than the ramp-up or drain — unless the
	// spec fixes the exact timeline itself.
	sched := spec.Schedule
	if sched == nil {
		sched, err = faults.PlanLinkFailures(m.G, spec.Failures,
			sim.Time(base)/4, base/2, spec.Seed)
		if err != nil {
			return nil, err
		}
	} else {
		spec.Failures = len(sched)
	}
	out := &FaultResult{Baseline: base, Failures: spec.Failures}

	// The faulted run mutates the graph's link state; restore it so the
	// machine (and its cached Tables) stay valid for the next experiment.
	downBefore := make([]bool, len(m.G.Links))
	for i, l := range m.G.Links {
		downBefore[i] = l.Down
	}
	defer func() {
		for i, l := range m.G.Links {
			l.Down = downBefore[i]
		}
	}()

	inst, err := spec.Build(spec.Nodes)
	if err != nil {
		return nil, err
	}
	f, err := m.NewFabric(spec.Seed)
	if err != nil {
		return nil, err
	}
	if spec.Telemetry != nil {
		f.AttachTelemetry(spec.Telemetry)
	}
	mgr, err := faults.NewManager(f, faults.SMConfig{
		DetectionDelay: spec.Detect,
		SweepLatency:   spec.Sweep,
		Rebuild:        m.Primary().Rebuild,
		Revalidate:     true,
	})
	if err != nil {
		return nil, err
	}
	// Goodput window boundaries: delivered-byte snapshots at the first
	// failure and at the last successful table swap.
	var (
		firstFaultAt    sim.Time
		bytesAtFault    float64
		lastSwapAt      sim.Time
		bytesAtSwap     float64
		sampledFirstHit bool
	)
	mgr.OnApply = func(faults.Event) {
		if !sampledFirstHit {
			sampledFirstHit = true
			firstFaultAt = f.Eng.Now()
			bytesAtFault = f.DeliveredBytes
		}
	}
	mgr.OnSwept = func(s faults.Sweep) {
		if s.Rejected == nil {
			lastSwapAt = f.Eng.Now()
			bytesAtSwap = f.DeliveredBytes
		}
	}
	if err := mgr.Inject(sched); err != nil {
		return nil, err
	}
	res, err := mpi.Run(f, "faulted", ranks, inst.Progs, mpi.Options{})
	out.Sweeps = mgr.Sweeps
	out.Latencies = mgr.SweepLatencies()
	out.TornDown = uint64(mgr.TornDown)
	out.Retries = f.Retries
	out.GiveUps = f.GiveUps
	out.Messages = f.Messages
	out.Delivered = f.Delivered
	if err != nil {
		return out, err
	}
	out.Faulted = res.Elapsed

	if sampledFirstHit && firstFaultAt > res.Start {
		out.GoodputBefore = bytesAtFault / float64(firstFaultAt-res.Start)
	}
	if lastSwapAt > firstFaultAt {
		out.GoodputDuring = (bytesAtSwap - bytesAtFault) / float64(lastSwapAt-firstFaultAt)
	}
	if res.End > lastSwapAt && lastSwapAt > 0 {
		out.GoodputAfter = (f.DeliveredBytes - bytesAtSwap) / float64(res.End-lastSwapAt)
	}
	return out, nil
}

// runBaseline places the ranks, runs the workload fault-free on a fresh
// fabric over the machine's primary plane and returns its makespan: the
// reference that times injected failures and scores their slowdown.
func runBaseline(m *Machine, nodes int, seed uint64, build func(n int) (*workloads.Instance, error)) (sim.Duration, error) {
	ranks, err := m.Place(nodes, seed)
	if err != nil {
		return 0, err
	}
	inst, err := build(nodes)
	if err != nil {
		return 0, err
	}
	f, err := m.NewFabric(seed)
	if err != nil {
		return 0, err
	}
	res, err := mpi.Run(f, "baseline", ranks, inst.Progs, mpi.Options{})
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

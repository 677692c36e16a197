package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/faults"
	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// faultParams are `t2hx -faults -metrics-out -trace-out` on two machines,
// with the streams hashed in memory instead of written to disk.
type faultParams struct {
	Scenarios []faultScenario
	Op        string
	Size      int64
	Nodes     int
	Degrade   bool
	// MachineSeed is MachineConfig.Seed; FaultSeed is FaultSpec.Seed
	// (placement, failure plan and PML randomness).
	MachineSeed, FaultSeed uint64
}

// faultScenario is one machine, its runtime link-failure count and the
// number of instants the failures are grouped into.
//
// t2hx -faults draws both which links fail and when from the seed, so the
// number of SM re-sweeps, and with it the routing work of a run, moves
// with the seed (17 to 20 re-sweeps on seeds 1, 2 and 21, a 35% spread in
// run time on a 2-vCPU Xeon). The benchmark draws the links the same way and gathers them into
// Bursts instants spaced wider than a sweep, so every seed re-sweeps
// exactly Bursts times.
type faultScenario struct {
	Combo    string
	Failures int
	Bursts   int
}

func newFaultResweep(seed uint64) faultParams {
	rng := splitmix(seed)
	return faultParams{
		Scenarios: []faultScenario{
			{Combo: fatTreeFTree, Failures: paperFTFailure, Bursts: 3},
			{Combo: hyperXDFSSSP, Failures: paperHXFailure, Bursts: 8},
		},
		Op: "alltoall", Size: 1 << 20, Nodes: 28, Degrade: true,
		MachineSeed: rng.next(), FaultSeed: rng.next(),
	}
}

type faultResweep struct {
	p         faultParams
	machines  []*exp.Machine
	schedules []faults.Schedule
	// sends is the number of messages one run of the job submits.
	sends uint64
}

func (p faultParams) build(tr *tracer) (bench, error) {
	b := &faultResweep{p: p}
	for _, s := range p.Scenarios {
		cs := combosByName([]string{s.Combo})
		if len(cs) != 1 {
			return nil, fmt.Errorf("fault_resweep: unknown combo %q", s.Combo)
		}
		m, err := buildMachine(cs[0], exp.MachineConfig{Degrade: p.Degrade, Seed: p.MachineSeed}, tr)
		if err != nil {
			return nil, fmt.Errorf("fault_resweep: %s: %w", s.Combo, err)
		}
		sched, err := p.schedule(m, s)
		if err != nil {
			return nil, fmt.Errorf("fault_resweep: %s: %w", s.Combo, err)
		}
		b.machines = append(b.machines, m)
		b.schedules = append(b.schedules, sched)
	}
	inst, err := p.instance(p.Nodes)
	if err != nil {
		return nil, err
	}
	b.sends = sendOps(inst.Progs)
	return b, nil
}

// schedule plans a scenario's failures over the middle half of its
// fault-free makespan, as exp.RunFaultScenario does, and moves them onto
// the scenario's burst instants. The makespan comes from one fault-free
// run of the job, which is why set-up includes a simulated run here.
func (p faultParams) schedule(m *exp.Machine, s faultScenario) (faults.Schedule, error) {
	ranks, err := m.Place(p.Nodes, p.FaultSeed)
	if err != nil {
		return nil, err
	}
	inst, err := p.instance(p.Nodes)
	if err != nil {
		return nil, err
	}
	f, err := m.NewFabric(p.FaultSeed)
	if err != nil {
		return nil, err
	}
	res, err := mpi.Run(f, "calibrate", ranks, inst.Progs, mpi.Options{})
	if err != nil {
		return nil, err
	}
	start, window := sim.Time(res.Elapsed)/4, res.Elapsed/2
	sched, err := faults.PlanLinkFailures(m.G, s.Failures, start, window, p.FaultSeed)
	if err != nil {
		return nil, err
	}
	step := window / sim.Duration(s.Bursts)
	if step <= faults.DefaultDetectionDelay+faults.DefaultSweepLatency {
		return nil, fmt.Errorf("%d bursts over a %.1f ms window overlap the subnet manager's sweeps", s.Bursts, 1e3*float64(window))
	}
	for i := range sched {
		burst := i * s.Bursts / len(sched)
		sched[i].At = start + (sim.Time(burst)+0.5)*step
	}
	return sched, nil
}

func (p faultParams) instance(n int) (*workloads.Instance, error) {
	return workloads.BuildIMB(p.Op, n, p.Size)
}

// streams are one scenario's telemetry: counters, message records and the
// trace, each hashed as it streams.
type streams struct {
	col          *telemetry.Collector
	jsonl, trace hash.Hash64
}

func (b *faultResweep) newStreams(m *exp.Machine, tr *tracer) *streams {
	s := &streams{
		col:   telemetry.New(m.G, telemetry.Options{Counters: true, Messages: true, Trace: true}),
		jsonl: fnv.New64a(), trace: fnv.New64a(),
	}
	var sink, traceSink telemetry.Sink = telemetry.NewJSONLSink(s.jsonl), telemetry.NewTraceSink(s.trace)
	if tr != nil {
		sink, traceSink = tracedSink{sink, tr}, tracedSink{traceSink, tr}
	}
	s.col.SetSink(sink)
	s.col.SetTraceSink(traceSink)
	return s
}

// finish writes the streams' footers and closes them, as t2hx does after
// a faulted run.
func (s *streams) finish(tr *tracer) error {
	tr.begin(kFinish)
	defer tr.end(kFinish)
	return errors.Join(s.col.FinishStream(), s.col.FinishTraceStream())
}

// unit runs every scenario once on a fresh table cache, so each SM
// re-sweep is a cache miss. Untraced it is exp.RunFaultBatch. The digest
// covers every FaultResult field and both telemetry streams.
func (b *faultResweep) unit(tr *tracer) unitResult {
	res := unitResult{ops: len(b.machines)}
	h := newHasher()
	cache := coldTableCache()
	specs := make([]exp.FaultSpec, len(b.machines))
	strs := make([]*streams, len(b.machines))
	for i, m := range b.machines {
		strs[i] = b.newStreams(m, tr)
		specs[i] = exp.FaultSpec{
			Machine: m, Nodes: b.p.Nodes, Failures: len(b.schedules[i]), Schedule: b.schedules[i],
			Seed: b.p.FaultSeed, Build: b.p.instance, Telemetry: strs[i].col,
		}
	}
	var results []*exp.FaultResult
	var err error
	if tr == nil {
		results, err = exp.RunFaultBatch(exp.Runner{Workers: runnerWorkers}, specs)
	} else {
		results, err = b.runTraced(specs, tr, &res)
	}
	res.cache = cache.Stats()
	if results == nil {
		res.fail(res.ops, "fault_resweep: %v", err)
		return res
	}
	if err != nil {
		res.problems = append(res.problems, err.Error())
	}
	for i, r := range results {
		name := b.p.Scenarios[i].Combo
		ferr := strs[i].finish(tr)
		switch {
		case r == nil || r.Faulted == 0:
			res.fail(1, "fault_resweep: %s did not complete", name)
			continue
		case ferr != nil:
			res.fail(1, "fault_resweep: %s telemetry: %v", name, ferr)
		case r.Delivered+r.GiveUps != r.Messages || r.Messages != b.sends:
			res.fail(1, "fault_resweep: %s delivered %d + gave up %d of %d messages, job submits %d",
				name, r.Delivered, r.GiveUps, r.Messages, b.sends)
		}
		// The baseline run is fault-free and completed, so it delivered
		// every message the job submits.
		res.msgs += b.sends + r.Delivered
		res.sweeps += len(r.Sweeps)
		res.rejectedSweeps += len(r.Sweeps) - len(r.Latencies)
		hashFaultResult(h, r)
		h.word(strs[i].jsonl.Sum64())
		h.word(strs[i].trace.Sum64())
	}
	res.digest = h.digest()
	// The fabrics exp.RunFaultScenario builds are not reachable from here;
	// the results and the telemetry collectors are.
	res.keep = []any{results, strs}
	return res
}

func hashFaultResult(h *hasher, r *exp.FaultResult) {
	h.float(float64(r.Baseline))
	h.float(float64(r.Faulted))
	h.word(uint64(r.Failures))
	h.word(uint64(len(r.Sweeps)))
	for _, s := range r.Sweeps {
		h.float(float64(s.Trigger))
		h.float(float64(s.Detected))
		h.float(float64(s.Swapped))
		h.word(uint64(s.Events))
		rej := ""
		if s.Rejected != nil {
			rej = s.Rejected.Error()
		}
		h.str(rej)
		h.word(boolWord(s.Validated))
		h.word(boolWord(s.DeadlockFree))
		h.word(uint64(s.Unreachable))
		h.float(s.Margin)
	}
	h.word(uint64(len(r.Latencies)))
	for _, l := range r.Latencies {
		h.float(float64(l))
	}
	for _, v := range []uint64{r.TornDown, r.Retries, r.GiveUps, r.Messages, r.Delivered} {
		h.word(v)
	}
	for _, g := range []float64{r.GoodputBefore, r.GoodputDuring, r.GoodputAfter} {
		h.float(g)
	}
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// runTraced is exp.RunFaultBatch through the traced boundaries: the same
// runner, with each scenario run by faultScenarioTraced. The runner has
// one worker, which runs the cells one at a time while this goroutine
// waits, so the cells and the telemetry sinks share the unit's tracer.
func (b *faultResweep) runTraced(specs []exp.FaultSpec, tr *tracer, res *unitResult) ([]*exp.FaultResult, error) {
	cells := make([]exp.Cell, len(specs))
	for i := range specs {
		i := i
		cells[i] = exp.Cell{Label: specs[i].Machine.Combo.Name, Run: func(uint64) (any, error) {
			tr.begin(kCell)
			defer tr.end(kCell)
			return faultScenarioTraced(specs[i], tr, &res.steps, &res.counts)
		}}
	}
	r := exp.Runner{Workers: runnerWorkers}
	r.OnStats = func(s exp.RunnerStats) {
		if s.Final {
			res.workerUtil = s.Utilization
		}
	}
	cr, err := r.RunAll(cells)
	out := make([]*exp.FaultResult, len(specs))
	for i, c := range cr {
		out[i], _ = c.Value.(*exp.FaultResult)
	}
	return out, err
}

// faultScenarioTraced is exp.RunFaultScenario with the subnet manager's
// Rebuild, both jobs' transports and their step loops traced. It covers
// the spec fields fault_resweep sets, including its explicit Schedule; the
// digest holds it to the original.
func faultScenarioTraced(spec exp.FaultSpec, tr *tracer, st *stepStats, c *counts) (*exp.FaultResult, error) {
	m := spec.Machine
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ranks, err := m.Place(spec.Nodes, spec.Seed)
	if err != nil {
		return nil, err
	}
	inst, err := spec.Build(spec.Nodes)
	if err != nil {
		return nil, err
	}
	fb, err := m.NewFabric(spec.Seed)
	if err != nil {
		return nil, err
	}
	base, err := runJob(fb, "baseline", ranks, inst.Progs, mpi.Options{}, tr, st)
	c.addMessenger(fb)
	if err != nil {
		return nil, err
	}
	out := &exp.FaultResult{Baseline: base.Elapsed, Failures: len(spec.Schedule)}

	downBefore := make([]bool, len(m.G.Links))
	for i, l := range m.G.Links {
		downBefore[i] = l.Down
	}
	defer func() {
		for i, l := range m.G.Links {
			l.Down = downBefore[i]
		}
	}()

	inst, err = spec.Build(spec.Nodes)
	if err != nil {
		return nil, err
	}
	f, err := m.NewFabric(spec.Seed)
	if err != nil {
		return nil, err
	}
	f.AttachTelemetry(spec.Telemetry)
	rebuild := m.Primary().Rebuild
	mgr, err := faults.NewManager(f, faults.SMConfig{
		Rebuild: func() (*route.Tables, error) {
			tr.begin(kRebuild)
			defer tr.end(kRebuild)
			return rebuild()
		},
		Revalidate: true,
	})
	if err != nil {
		return nil, err
	}
	var (
		firstFaultAt, lastSwapAt  sim.Time
		bytesAtFault, bytesAtSwap float64
		sampledFirstHit           bool
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
	if err := mgr.Inject(spec.Schedule); err != nil {
		return nil, err
	}
	fr, err := runJob(f, "faulted", ranks, inst.Progs, mpi.Options{}, tr, st)
	c.addMessenger(f)
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
	out.Faulted = fr.Elapsed
	if sampledFirstHit && firstFaultAt > fr.Start {
		out.GoodputBefore = bytesAtFault / float64(firstFaultAt-fr.Start)
	}
	if lastSwapAt > firstFaultAt {
		out.GoodputDuring = (bytesAtSwap - bytesAtFault) / float64(lastSwapAt-firstFaultAt)
	}
	if fr.End > lastSwapAt && lastSwapAt > 0 {
		out.GoodputAfter = (f.DeliveredBytes - bytesAtSwap) / float64(fr.End-lastSwapAt)
	}
	return out, nil
}

package main

import (
	"fmt"
	"sync"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// sweepParams are the Fig. 4 sweep: IMB collectives on every machine of
// exp.AllCombos over degraded 672-node planes, as `t2hx -sweep` runs them.
type sweepParams struct {
	Combos []string
	Ops    []string
	// Sizes put each size switch on both sides: PARX's 512 B LID choice,
	// sizesplit's 16 KiB plane choice and allreduce's 64 KiB ring switch.
	Sizes  []int64
	Nodes  int
	Trials int
	// Placements is how many times each (machine, collective, size) cell
	// runs, each time under its own cell seed: its own placement and PML
	// randomness. With three, ten seeds cost 11.8 to 12.9 host CPU µs per
	// message (see paperMachineSeed).
	Placements int
	Degrade    bool
	// BaseSeed is Runner.BaseSeed: placement and PML randomness per cell.
	BaseSeed uint64
}

// paperMachineSeed is MachineConfig.Seed, which cables the degraded planes
// miss: `t2hx -sweep`'s default -seed. It is fixed rather than drawn from
// the workload seed because the missing cables set much of a message's
// cost. With the machine drawn from the seed, six seeds cost 11.7 to 18.3
// host CPU µs per message on a 2-vCPU Xeon; on this machine, with one
// placement per cell, ten base seeds cost 12.5 to 13.7 µs, apart from one
// at 17.2 µs.
const paperMachineSeed = 1

func newPaperSweep(seed uint64) sweepParams {
	rng := splitmix(seed)
	return sweepParams{
		Combos: allComboNames(),
		Ops:    []string{"alltoall", "allreduce"},
		Sizes:  []int64{1 << 20, 256},
		Nodes:  32, Trials: 1, Placements: 3, Degrade: true,
		BaseSeed: rng.next(),
	}
}

type paperSweep struct {
	p        sweepParams
	combos   []exp.Combo
	machines []*exp.Machine // the set-up's machines, referenced until the run ends
}

// build routes every machine once through the cold table cache, so the
// run phase's cells work on table-cache hits.
func (p sweepParams) build(tr *tracer) (bench, error) {
	b := &paperSweep{p: p, combos: combosByName(p.Combos)}
	if len(b.combos) != len(p.Combos) {
		return nil, fmt.Errorf("paper_sweep: unknown combo in %q", p.Combos)
	}
	for _, c := range b.combos {
		m, err := buildMachine(c, p.cfg(), tr)
		if err != nil {
			return nil, fmt.Errorf("paper_sweep: %s: %w", c.Name, err)
		}
		b.machines = append(b.machines, m)
	}
	return b, nil
}

func (p sweepParams) cfg() exp.MachineConfig {
	return exp.MachineConfig{Degrade: p.Degrade, Seed: paperMachineSeed}
}

// sweepCell is one (machine, collective, size) cell.
type sweepCell struct {
	label string
	combo exp.Combo
	build func(n int) (*workloads.Instance, error)
}

// cells lists the sweep's cells, size by size.
func (b *paperSweep) cells() []sweepCell {
	var out []sweepCell
	for _, sz := range b.p.Sizes {
		for pl := 0; pl < b.p.Placements; pl++ {
			for _, c := range b.combos {
				for _, op := range b.p.Ops {
					op, sz := op, sz
					out = append(out, sweepCell{
						label: fmt.Sprintf("%s %s %d B, placement %d", c.Name, op, sz, pl),
						combo: c,
						build: func(n int) (*workloads.Instance, error) { return workloads.BuildIMB(op, n, sz) },
					})
				}
			}
		}
	}
	return out
}

// unit runs the whole sweep once. Untraced it is exp.RunSweep, with the
// Attach hook collecting each trial's transport for the message counts.
// The digest covers every cell's seed and result vector.
func (b *paperSweep) unit(tr *tracer) unitResult {
	cells := b.cells()
	res := unitResult{ops: len(cells)}
	before := exp.DefaultTableCache.Stats()
	var results []exp.SweepResult
	var transports []fabric.Messenger
	var err error
	perCell := make([]counts, len(cells))
	if tr == nil {
		results, transports, err = b.runSweep(cells, perCell)
	} else {
		results, err = b.runTraced(cells, perCell, tr, &res)
	}
	after := exp.DefaultTableCache.Stats()
	res.cache = exp.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses, Evictions: after.Evictions - before.Evictions}
	if err != nil {
		res.fail(res.ops, "paper_sweep: %v", err)
		return res
	}
	for i, c := range perCell {
		res.counts.merge(c)
		if !c.lossless() || c.messages == 0 {
			res.fail(1, "paper_sweep: cell %q submitted %d msgs/%.0f B, delivered %d msgs/%.0f B",
				cells[i].label, c.messages, c.bytes, c.delivered, c.deliveredBytes)
		}
	}
	res.msgs = res.counts.delivered
	h := newHasher()
	for _, r := range results {
		h.word(uint64(r.Index))
		h.str(r.Label)
		h.word(r.Seed)
		h.word(uint64(len(r.Vals)))
		for _, v := range r.Vals {
			h.float(v)
		}
	}
	res.digest = h.digest()
	// Every cell's last transport, and through it its engine and flow
	// state, stays referenced until the end-of-run heap reading.
	res.keep = []any{results, transports}
	return res
}

// runSweep is exp.RunSweep. It returns each cell's last transport too.
func (b *paperSweep) runSweep(cells []sweepCell, perCell []counts) ([]exp.SweepResult, []fabric.Messenger, error) {
	// A cell's trials run one after another on one worker, so when trial t
	// attaches, trial t-1 has finished and its transport can be counted.
	last := make([]fabric.Messenger, len(cells))
	scells := make([]exp.SweepCell, len(cells))
	for i, c := range cells {
		i := i
		scells[i] = exp.SweepCell{
			Label: c.label, Combo: c.combo, Cfg: b.p.cfg(),
			Nodes: b.p.Nodes, Trials: b.p.Trials, Build: c.build,
			Attach: func(_ int, f fabric.Messenger) {
				if last[i] != nil {
					perCell[i].addMessenger(last[i])
				}
				last[i] = f
			},
		}
	}
	results, err := exp.RunSweep(exp.Runner{Workers: runnerWorkers, BaseSeed: b.p.BaseSeed}, scells)
	for i, m := range last {
		if m != nil {
			perCell[i].addMessenger(m)
		}
	}
	return results, last, err
}

// runTraced is exp.RunSweep and exp.RunTrials through the traced
// boundaries, on the same runner, seeds and machines.
func (b *paperSweep) runTraced(cells []sweepCell, perCell []counts, tr *tracer, res *unitResult) ([]exp.SweepResult, error) {
	var mu sync.Mutex
	r := exp.Runner{Workers: runnerWorkers, BaseSeed: b.p.BaseSeed}
	// The final snapshot is delivered on this goroutine after the pool
	// drains.
	r.OnStats = func(s exp.RunnerStats) {
		if s.Final {
			res.workerUtil = s.Utilization
		}
	}
	label := func(i int) string { return cells[i].label }
	return exp.ForEach(r, len(cells), label, func(i int, seed uint64) (exp.SweepResult, error) {
		ctr := tr.child()
		defer tr.merge(ctr)
		ctr.begin(kCell)
		defer ctr.end(kCell)
		c := cells[i]
		m, err := buildMachine(c.combo, b.p.cfg(), ctr)
		if err != nil {
			return exp.SweepResult{}, err
		}
		var cst stepStats
		vals, err := runTrials(m, b.p.Nodes, b.p.Trials, seed, c.build, ctr, &cst, &perCell[i])
		mu.Lock()
		res.steps.max(cst)
		mu.Unlock()
		if err != nil {
			return exp.SweepResult{}, err
		}
		return exp.SweepResult{Index: i, Label: c.label, Seed: seed, Vals: vals, Stats: exp.Summarize(vals)}, nil
	})
}

// runTrials is exp.RunTrials without jitter (the instance is built once),
// each trial a traced job on a fresh transport.
func runTrials(m *exp.Machine, nodes, trials int, seed uint64, build func(int) (*workloads.Instance, error), tr *tracer, st *stepStats, c *counts) ([]float64, error) {
	ranks, err := m.Place(nodes, seed)
	if err != nil {
		return nil, err
	}
	inst, err := build(nodes)
	if err != nil {
		return nil, err
	}
	var vals []float64
	for t := 0; t < trials; t++ {
		msgr, err := m.NewMessenger(seed + uint64(t)*7919)
		if err != nil {
			return nil, err
		}
		res, err := runJob(msgr, "trial", ranks, inst.Progs, mpi.Options{Seed: seed + uint64(t)*104729}, tr, st)
		c.addMessenger(msgr)
		if err != nil {
			return nil, err
		}
		vals = append(vals, inst.Score(res.Elapsed))
	}
	return vals, nil
}

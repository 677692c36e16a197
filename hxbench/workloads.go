package main

import (
	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/topo"
)

// bench is a workload's built machines plus its unit of simulated work.
type bench interface {
	// unit runs one fixed unit of simulated work, identical on every call:
	// its inputs come from the workload seed alone. With a tracer the same
	// work runs through the traced layer boundaries.
	unit(tr *tracer) unitResult
}

// params are a workload's inputs, generated from the seed. build is the
// set-up: it constructs the machines, recording topology and routing spans
// when tr is non-nil.
type params interface {
	build(tr *tracer) (bench, error)
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	// setups is the number of cold set-ups per run; setup_s is their
	// median. endurance builds for about 9 s on a 2-vCPU Xeon, so two are
	// enough there.
	setups int
	params func(seed uint64) params
	// fixed are the workload's constant inputs, for the provenance line.
	fixed map[string]any
}

// workloadTable is the benchmark's workload table. All three are closed loops
// generated from the seed and sized for a 2-CPU host.
var workloadTable = []workload{
	// endurance is the shape and the parameters of `t2hx -scale`: the only
	// workload whose per-terminal state (forwarding tables, the fabric's
	// path cache keyed by 32k sources) outgrows the CPU caches. Its set-up
	// is routing at scale; its run is sim, flow and fabric only, with no
	// MPI, PARX, faults or telemetry.
	{name: "endurance", setups: 2, params: func(seed uint64) params { return newEndurance(seed) },
		fixed: map[string]any{"routing": enduranceRouting}},
	// paper_sweep is the paper's Fig. 4 comparison over all six machines.
	// PARX dominates its set-up; its run covers MPI progress, the bfo PML,
	// multi-plane selection and the runner working on table-cache hits.
	// alltoall settles one all-pairs burst, allreduce ring rounds.
	{name: "paper_sweep", setups: 3, params: func(seed uint64) params { return newPaperSweep(seed) },
		fixed: map[string]any{"machine_seed": paperMachineSeed, "workers": runnerWorkers}},
	// fault_resweep keeps the runtime-failure re-sweep setting of
	// fault-tolerant HyperX routing: routing runs inside the run loop
	// because every SM re-sweep misses the table cache, and the fabric's
	// teardown and retry path, the faults manager and telemetry's flush
	// barriers run only here. PARX is left out: its rebuilds (2-3 s each on
	// a 2-vCPU Xeon) would bury every other layer. Its set-up is short
	// (about 0.5 s there), hence the seven set-ups.
	{name: "fault_resweep", setups: 7, params: func(seed uint64) params { return newFaultResweep(seed) },
		fixed: map[string]any{"workers": runnerWorkers}},
}

// runnerWorkers is Runner.Workers for paper_sweep and fault_resweep. One
// worker keeps fault_resweep's re-sweep cache traffic independent of
// thread timing. For paper_sweep, whose rate counts host CPU seconds, a
// second worker adds no work and only noise: on a 2-vCPU VM its units'
// CPU cost per message varied by ±15%, against ±5% on one worker.
const runnerWorkers = 1

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tableCacheCap is the capacity exp gives DefaultTableCache; every set-up
// and every fault unit starts from a fresh cache of this size.
const tableCacheCap = 64

func coldTableCache() *exp.TableCache {
	exp.DefaultTableCache = exp.NewTableCache(tableCacheCap)
	return exp.DefaultTableCache
}

// splitmix is the benchmark's own input generator, independent of the
// simulator's RNG so a change to the program cannot silently change the
// inputs it is measured on.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// perm returns a uniformly drawn permutation of [0, n).
func (s *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// combosByName resolves exp.AllCombos entries by name.
func combosByName(names []string) []exp.Combo {
	var out []exp.Combo
	for _, n := range names {
		for _, c := range exp.AllCombos() {
			if c.Name == n {
				out = append(out, c)
			}
		}
	}
	return out
}

func allComboNames() []string {
	var out []string
	for _, c := range exp.AllCombos() {
		out = append(out, c.Name)
	}
	return out
}

// Paper machine names used by fault_resweep.
var (
	fatTreeFTree   = exp.PaperCombos()[0].Name // Fat-Tree / ftree / linear
	hyperXDFSSSP   = exp.PaperCombos()[2].Name // HyperX / DFSSSP / linear
	paperFTFailure = topo.PaperFatTreeMissingLinks
	paperHXFailure = topo.PaperHyperXMissingAOCs
)

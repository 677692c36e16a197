// Package capacity implements the multi-application throughput evaluation
// of Sec. 4.4.2 / Fig. 7: fourteen applications on dedicated 32- or
// 56-node blocks (664 of the 672 nodes, 98.8% of the machine), submitted
// simultaneously and re-executed back-to-back for a three-hour window; the
// metric is the number of completed runs per application.
package capacity

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// Window is the paper's capacity-run duration.
const Window sim.Duration = 3 * sim.Hour

// AppSpec is one capacity-mix entry.
type AppSpec struct {
	Abbrev string
	Nodes  int
	Build  func(n int) *workloads.Instance
}

// PaperMix returns the fourteen-application mix: the twelve Sec. 4.2/4.3
// workloads plus IMB Multi-PingPong (MuPP) and the deep-learning Allreduce
// (EmDL). Nine apps get 56 nodes and the five power-of-two-ladder apps get
// 32, totalling 664 nodes as in the paper. BuildOpts compress iterations
// and add a startup prolog so single-run wall times land near the paper's
// per-app run counts under the baseline.
func PaperMix() []AppSpec {
	type tune struct {
		nodes                   int
		iterScale, computeScale float64
		prolog                  sim.Duration
	}
	tunes := map[string]tune{
		"AMG":  {56, 0.32, 13, 20 * sim.Second},
		"CoMD": {56, 0.25, 6.5, 20 * sim.Second},
		"MiFE": {56, 0.25, 27, 20 * sim.Second},
		"FFT":  {32, 0.25, 40, 20 * sim.Second},
		"FFVC": {32, 0.20, 54, 20 * sim.Second},
		"mVMC": {32, 0.25, 56, 20 * sim.Second},
		"NTCh": {56, 0.33, 4.6, 20 * sim.Second},
		"MILC": {32, 0.20, 18, 20 * sim.Second},
		"Qbox": {56, 0.40, 9.4, 20 * sim.Second},
		"HPL":  {56, 0.20, 9, 20 * sim.Second},
		"HPCG": {56, 0.25, 27, 20 * sim.Second},
		"GraD": {32, 0.25, 10, 15 * sim.Second},
	}
	var specs []AppSpec
	for _, a := range workloads.Registry() {
		a := a
		tn, ok := tunes[a.Abbrev]
		if !ok {
			panic("capacity: untuned app " + a.Abbrev)
		}
		opts := workloads.BuildOpts{IterScale: tn.iterScale, ComputeScale: tn.computeScale, Prolog: tn.prolog}
		specs = append(specs, AppSpec{
			Abbrev: a.Abbrev,
			Nodes:  tn.nodes,
			Build:  func(n int) *workloads.Instance { return a.Build(n, opts) },
		})
	}
	specs = append(specs, AppSpec{
		Abbrev: "MuPP",
		Nodes:  56,
		Build: func(n int) *workloads.Instance {
			in := workloads.BuildMultiPingPong(n, 4096, 1500)
			for _, p := range in.Progs {
				p.Ops = append([]mpi.Op{{Kind: mpi.OpCompute, Dur: 40 * sim.Second}}, p.Ops...)
			}
			return in
		},
	})
	specs = append(specs, AppSpec{
		Abbrev: "EmDL",
		Nodes:  56,
		Build: func(n int) *workloads.Instance {
			in := workloads.BuildEmDL(n, 50)
			for _, p := range in.Progs {
				p.Ops = append([]mpi.Op{{Kind: mpi.OpCompute, Dur: 200 * sim.Second}}, p.Ops...)
			}
			return in
		},
	})
	return specs
}

// TotalNodes sums the mix's node demand (664 for PaperMix).
func TotalNodes(specs []AppSpec) int {
	total := 0
	for _, s := range specs {
		total += s.Nodes
	}
	return total
}

// Result maps application abbreviation to the number of runs completed
// within the window.
type Result struct {
	Runs  map[string]int
	Total int
}

// Run executes the capacity evaluation on a machine: the whole allocation
// is placed with the combo's strategy, carved into per-app blocks, and
// every app re-launches itself back-to-back until the window closes. Only
// runs that finish inside the window count, like the paper's "valid runs".
func Run(m *exp.Machine, specs []AppSpec, window sim.Duration, seed uint64) (*Result, error) {
	total := TotalNodes(specs)
	if total > m.G.NumTerminals() {
		return nil, fmt.Errorf("capacity: mix needs %d nodes, machine has %d", total, m.G.NumTerminals())
	}
	alloc, err := m.Place(total, seed)
	if err != nil {
		return nil, err
	}
	f, err := m.NewFabric(seed)
	if err != nil {
		return nil, err
	}
	res := &Result{Runs: make(map[string]int, len(specs))}
	off := 0
	for i, spec := range specs {
		spec := spec
		block := alloc[off : off+spec.Nodes]
		off += spec.Nodes
		runSeed := seed + uint64(i)*1_000_003
		// One instance serves every relaunch: jobs only read their
		// programs, and the jitter is drawn per run from runSeed.
		inst := spec.Build(spec.Nodes)

		var launch func()
		launch = func() {
			runSeed++
			_, err := mpi.Launch(f, spec.Abbrev, block, inst.Progs, mpi.Options{
				ComputeJitterSigma: exp.TrialJitter,
				Seed:               runSeed,
			}, func(r mpi.Result) {
				if r.End <= sim.Time(window) {
					res.Runs[spec.Abbrev]++
					res.Total++
				}
				if f.Eng.Now() < sim.Time(window) {
					launch()
				}
			})
			if err != nil {
				panic(err) // programming error: specs are validated above
			}
		}
		launch()
	}
	f.Eng.RunUntil(sim.Time(window))
	return res, nil
}

// Order returns the paper's Fig. 7 x-axis order.
func Order() []string {
	return []string{"AMG", "CoMD", "FFVC", "GraD", "HPCG", "HPL", "MILC", "MiFE", "mVMC", "NTCh", "Qbox", "FFT", "MuPP", "EmDL"}
}

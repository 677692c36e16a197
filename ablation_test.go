package t2hx

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// placementCombos are the two HyperX/DFSSSP paper combos that differ only
// in placement: linear, then random.
func placementCombos() []exp.Combo {
	return []exp.Combo{exp.PaperCombos()[2], exp.PaperCombos()[3]}
}

// ablationPlacementUS runs the placement ablation under one combo: an
// 8-rank 1 MiB alltoall on the small planes, one trial, in µs/op.
func ablationPlacementUS(tb testing.TB, cmb exp.Combo) float64 {
	tb.Helper()
	m, err := exp.BuildMachine(cmb, exp.MachineConfig{Small: true, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	vals, _, err := exp.RunTrials(exp.TrialSpec{
		Machine: m, Nodes: 8, Trials: 1, Seed: 3,
		Build: func(n int) (*workloads.Instance, error) {
			return workloads.BuildIMB("alltoall", n, 1<<20)
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return vals[0]
}

// ablationPARXThresholdGiB runs the PARX-threshold ablation: mpiGraph
// average bandwidth (GiB/s, 1 MiB messages) among the 14 terminals of two
// adjacent switches of a 6x4 T=7 HyperX under PARX, with bfo's
// small/large threshold at thr bytes. A threshold above every message
// size turns the detours off, which leaves minimal routing.
func ablationPARXThresholdGiB(tb testing.TB, thr int64) float64 {
	tb.Helper()
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: []int{6, 4}, T: 7,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
	tbl, err := core.PARX(hx, core.Config{MaxVL: 8})
	if err != nil {
		tb.Fatal(err)
	}
	f := fabric.New(sim.NewEngine(), tbl, fabric.DefaultParams(), 1)
	if err := f.EnableBFO(hx, thr); err != nil {
		tb.Fatal(err)
	}
	ranks := append(hx.TerminalsOf(hx.SwitchAt(0, 0)), hx.TerminalsOf(hx.SwitchAt(1, 0))...)
	return workloads.MpiGraph(f, ranks, 1<<20).AvgGiB
}

// TestAblationPlacement pins the Sec. 3.1 mitigation: random placement
// spreads the dense alltoall and cuts its latency to 0.883 of linear's
// (3,078 vs 3,484 µs).
func TestAblationPlacement(t *testing.T) {
	cs := placementCombos()
	linear, random := ablationPlacementUS(t, cs[0]), ablationPlacementUS(t, cs[1])
	if r := random / linear; r < 0.80 || r > 0.95 {
		t.Errorf("random/linear alltoall latency = %.3f (%.0f / %.0f µs), want in [0.80, 0.95]", r, random, linear)
	}
}

// TestAblationPARXThreshold pins what the paper's 512 B threshold buys on
// the adjacent-switch hotspot: with detours off (a 2^30 B threshold)
// mpiGraph keeps 0.765 of the bandwidth (1.668 vs 2.180 GiB/s).
func TestAblationPARXThreshold(t *testing.T) {
	paper, off := ablationPARXThresholdGiB(t, 512), ablationPARXThresholdGiB(t, 1<<30)
	if r := off / paper; r < 0.70 || r > 0.85 {
		t.Errorf("mpiGraph at 2^30 / 512 B threshold = %.3f (%.3f / %.3f GiB/s), want in [0.70, 0.85]", r, off, paper)
	}
}

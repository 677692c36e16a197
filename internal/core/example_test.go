package core_test

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// ExamplePARX routes a small even-dimension 2-D HyperX with PARX and shows
// the minimal/non-minimal path pair the LMC multi-pathing provides.
func ExamplePARX() {
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: []int{4, 4}, T: 1,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
	tables, err := core.PARX(hx, core.Config{MaxVL: 8})
	if err != nil {
		panic(err)
	}
	src := hx.TerminalsOf(hx.SwitchAt(0, 0))[0]
	dst := hx.TerminalsOf(hx.SwitchAt(1, 0))[0] // same quadrant, adjacent
	small := core.LIDChoices(core.Q0, core.Q0, false)[0]
	large := core.LIDChoices(core.Q0, core.Q0, true)[0]
	ps, _ := tables.Path(src, tables.LIDFor(dst, small))
	pl, _ := tables.Path(src, tables.LIDFor(dst, large))
	// A path's channels include injection and delivery.
	fmt.Printf("small-message LID%d: %d switch hop(s)\n", small, len(ps)-2)
	fmt.Printf("large-message LID%d: %d switch hop(s)\n", large, len(pl)-2)
	// Output:
	// small-message LID1: 1 switch hop(s)
	// large-message LID0: 2 switch hop(s)
}

// ExampleSelectLIDOffset shows the bfo PML's Table-1 selection.
func ExampleSelectLIDOffset() {
	r := sim.NewRand(7)
	fmt.Println("Q0->Q1, 64 B: LID", core.SelectLIDOffset(core.Q0, core.Q1, 64, core.DefaultThreshold, r))
	fmt.Println("Q0->Q1, 1 MiB: LID", core.SelectLIDOffset(core.Q0, core.Q1, 1<<20, core.DefaultThreshold, r))
	// Output:
	// Q0->Q1, 64 B: LID 1
	// Q0->Q1, 1 MiB: LID 0
}

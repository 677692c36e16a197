package figures

import (
	"fmt"
	"text/tabwriter"

	"github.com/hpcsim/t2hx/internal/capacity"
	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// Fig7 regenerates the capacity/throughput comparison: completed runs per
// application for each of the five combos over the (configurable) window.
// The paper's headline: HyperX/DFSSSP/linear finishes 12.7% more jobs than
// the Fat-Tree baseline, and MILC collapses under random placement.
func (s *Session) Fig7() error {
	mix := s.capacityMix()
	s.header(fmt.Sprintf("Figure 7: capacity evaluation (%d apps, %d nodes, %.0f min window)",
		len(mix), capacity.TotalNodes(mix), float64(s.P.CapacityWindow)/60))
	combos := exp.PaperCombos()
	results, err := s.capacityRuns(combos, mix)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(s.P.Out, 4, 0, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "app\t")
	for _, c := range combos {
		fmt.Fprintf(w, "%s\t", shortCombo(c))
	}
	fmt.Fprintln(w)
	order := capacity.Order()
	if s.P.Small {
		order = nil
		for _, sp := range mix {
			order = append(order, sp.Abbrev)
		}
	}
	for _, app := range order {
		fmt.Fprintf(w, "%s\t", app)
		for _, res := range results {
			fmt.Fprintf(w, "%d\t", res.Runs[app])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "TOTAL\t")
	for _, res := range results {
		fmt.Fprintf(w, "%d\t", res.Total)
	}
	fmt.Fprintln(w)
	w.Flush()
	if base := results[0].Total; base > 0 {
		for i, c := range combos[1:] {
			s.printf("%s vs baseline: %+.1f%%\n", c.Name,
				100*(float64(results[i+1].Total)/float64(base)-1))
		}
	}
	return nil
}

// Fig7Totals runs the capacity study and returns per-combo totals (tests).
func (s *Session) Fig7Totals() (map[string]int, error) {
	combos := exp.PaperCombos()
	results, err := s.capacityRuns(combos, s.capacityMix())
	if err != nil {
		return nil, err
	}
	totals := make(map[string]int, len(combos))
	for i, c := range combos {
		totals[c.Name] = results[i].Total
	}
	return totals, nil
}

// capacityMix is the Fig. 7 application mix: the paper's, or a 4-app mix
// on the small planes.
func (s *Session) capacityMix() []capacity.AppSpec {
	if s.P.Small {
		return smallMixFor(s.P)
	}
	return capacity.PaperMix()
}

// capacityRuns runs the capacity study once per combo, as cells over the
// session's worker pool. capacity.Run only reads its machine, so the
// cells share the cached ones, and every combo keeps seed P.Seed: the
// results are the same at any -j.
func (s *Session) capacityRuns(combos []exp.Combo, mix []capacity.AppSpec) ([]*capacity.Result, error) {
	return exp.ForEach(s.runner(), len(combos), func(i int) string { return combos[i].Name },
		func(i int, _ uint64) (*capacity.Result, error) {
			m, err := s.Machine(combos[i])
			if err != nil {
				return nil, err
			}
			return capacity.Run(m, mix, s.P.CapacityWindow, s.P.Seed)
		})
}

// smallMixFor is a 4-app mix sized for the 32-node test planes.
func smallMixFor(p Params) []capacity.AppSpec {
	quick := workloads.BuildOpts{IterScale: 0.1, ComputeScale: 1, Prolog: 2 * sim.Second}
	var mix []capacity.AppSpec
	for _, ab := range []string{"AMG", "CoMD", "MILC", "GraD"} {
		app, err := workloads.FindApp(ab)
		if err != nil {
			panic(err)
		}
		mix = append(mix, capacity.AppSpec{
			Abbrev: app.Abbrev, Nodes: 8,
			Build: func(n int) *workloads.Instance { return app.Build(n, quick) },
		})
	}
	return mix
}

// shortCombo abbreviates a combo name for table headers.
func shortCombo(c exp.Combo) string {
	topo := "FT"
	if c.Topology == "hyperx" {
		topo = "HX"
	}
	return fmt.Sprintf("%s/%s/%s", topo, c.Routing, string(c.Placement)[:4])
}

package figures

import (
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"github.com/hpcsim/t2hx/internal/capacity"
	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// Capacity is Fig. 7's measurement: completed runs per application for
// each combo.
type Capacity struct {
	// Nodes is the size of the application mix; Window the capacity
	// window.
	Nodes  int
	Window sim.Duration
	Combos []exp.Combo
	// Order lists the mix's applications in table order.
	Order   []string
	Results []*capacity.Result
}

// Fig7 measures the capacity/throughput comparison: completed runs per
// application for each of the five combos over the (configurable) window.
// The paper's headline: HyperX/DFSSSP/linear finishes 12.7% more jobs than
// the Fat-Tree baseline, and MILC collapses under random placement.
func (s *Session) Fig7() (*Capacity, error) {
	mix := s.capacityMix()
	c := &Capacity{Nodes: capacity.TotalNodes(mix), Window: s.P.CapacityWindow,
		Combos: exp.PaperCombos(), Order: capacity.Order()}
	if s.P.Small {
		c.Order = nil
		for _, sp := range mix {
			c.Order = append(c.Order, sp.Abbrev)
		}
	}
	// capacity.Run only reads its machine, so the combos run as cells over
	// the session's pool on the cached machines, and every combo keeps seed
	// P.Seed: the results are the same at any -j.
	var err error
	c.Results, err = exp.ForEach(s.runner(), len(c.Combos), func(i int) string { return c.Combos[i].Name },
		func(i int, _ uint64) (*capacity.Result, error) {
			m, err := s.Machine(c.Combos[i])
			if err != nil {
				return nil, err
			}
			return capacity.Run(m, mix, s.P.CapacityWindow, s.P.Seed)
		})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Render prints the runs table with its totals and each combo's gain over
// the baseline, and writes the runs to csvDir when set.
func (c *Capacity) Render(w io.Writer, csvDir string) error {
	header(w, fmt.Sprintf("Figure 7: capacity evaluation (%d apps, %d nodes, %.0f min window)",
		len(c.Order), c.Nodes, float64(c.Window)/60))
	tw := tabwriter.NewWriter(w, 4, 0, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "app\t")
	for _, cb := range c.Combos {
		fmt.Fprintf(tw, "%s\t", shortCombo(cb))
	}
	fmt.Fprintln(tw)
	for _, app := range c.Order {
		fmt.Fprintf(tw, "%s\t", app)
		for _, res := range c.Results {
			fmt.Fprintf(tw, "%d\t", res.Runs[app])
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "TOTAL\t")
	for _, res := range c.Results {
		fmt.Fprintf(tw, "%d\t", res.Total)
	}
	fmt.Fprintln(tw)
	tw.Flush()
	if base := c.Results[0].Total; base > 0 {
		for i, cb := range c.Combos[1:] {
			fmt.Fprintf(w, "%s vs baseline: %+.1f%%\n", cb.Name,
				100*(float64(c.Results[i+1].Total)/float64(base)-1))
		}
	}
	var rows [][]string
	for i, cb := range c.Combos {
		for _, app := range c.Order {
			rows = append(rows, []string{cb.Name, app, strconv.Itoa(c.Results[i].Runs[app])})
		}
	}
	return writeCSV(csvDir, "Fig7", []string{"combo", "app", "runs"}, rows)
}

// capacityMix is the Fig. 7 application mix: the paper's, or a 4-app mix
// sized for the 32-node test planes.
func (s *Session) capacityMix() []capacity.AppSpec {
	if !s.P.Small {
		return capacity.PaperMix()
	}
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

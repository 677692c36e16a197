package figures

import (
	"fmt"
	"io"
	"strconv"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// fig1Nodes is the rack size of Fig. 1 (one 28-node rack).
const fig1Nodes = 28

// MpiGraph is Fig. 1's measurement: one mpiGraph bandwidth matrix per
// combo over the same rack.
type MpiGraph struct {
	Combos  []exp.Combo
	Results []*workloads.MpiGraphResult
}

// Fig1 measures the mpiGraph bandwidth comparison of Fig. 1: 28 nodes
// under (a) Fat-Tree/ftree, (b) HyperX/DFSSSP minimal routing, (c)
// HyperX/PARX. The paper's averages are 2.26, 0.84 and 1.39 GiB/s; the
// reproduction must show the same ordering and a PARX recovery of roughly
// +66% over minimal routing.
func (s *Session) Fig1() (*MpiGraph, error) {
	n := fig1Nodes
	if s.P.Small {
		n = 8
	}
	paper := exp.PaperCombos()
	g := &MpiGraph{Combos: []exp.Combo{
		paper[0], // Fat-Tree / ftree / linear
		paper[2], // HyperX / DFSSSP / linear
		paper[4], // HyperX / PARX (linear rack placement)
	}}
	for _, c := range g.Combos {
		m, err := s.Machine(c)
		if err != nil {
			return nil, err
		}
		// Fig. 1 is one rack: a linear slice of the hostfile, regardless of
		// the combo's job placement strategy.
		ranks := m.G.Terminals()[:n]
		f, err := m.NewFabric(s.P.Seed)
		if err != nil {
			return nil, err
		}
		g.Results = append(g.Results, workloads.MpiGraph(f, ranks, 1<<20))
	}
	return g, nil
}

// Render prints each combo's average and heatmap, then the PARX recovery
// over minimal routing, and writes every pair's bandwidth to csvDir when
// set.
func (g *MpiGraph) Render(w io.Writer, csvDir string) error {
	header(w, "Figure 1: mpiGraph observable bandwidth, one 28-node rack")
	var rows [][]string
	for i, res := range g.Results {
		name := g.Combos[i].Name
		fmt.Fprintf(w, "\n%s: avg %.2f GiB/s (min %.2f, max %.2f)\n", name, res.AvgGiB, res.MinGiB, res.MaxGiB)
		heatmap(w, res)
		for src := range res.BW {
			for dst, bw := range res.BW[src] {
				if src != dst {
					rows = append(rows, []string{name, strconv.Itoa(src), strconv.Itoa(dst), ftoa(workloads.GiB(bw))})
				}
			}
		}
	}
	if g.Results[1].AvgGiB > 0 {
		fmt.Fprintf(w, "\nPARX recovery over minimal HyperX routing: %+.0f%% (paper: +66%%)\n",
			100*(g.Results[2].AvgGiB/g.Results[1].AvgGiB-1))
	}
	return writeCSV(csvDir, "Fig1", []string{"combo", "src", "dst", "gib_per_s"}, rows)
}

// heatmap prints an ASCII rendition of the bandwidth matrix: '.'=idle
// diagonal, then 1..9/# buckets of GiB/s relative to the global line rate.
func heatmap(w io.Writer, res *workloads.MpiGraphResult) {
	if res.MaxGiB <= 0 {
		return
	}
	for i := range res.BW {
		for j := range res.BW[i] {
			if i == j {
				fmt.Fprint(w, ".")
				continue
			}
			frac := workloads.GiB(res.BW[i][j]) / res.MaxGiB
			switch {
			case frac > 0.95:
				fmt.Fprint(w, "#")
			default:
				fmt.Fprintf(w, "%d", int(frac*10))
			}
		}
		fmt.Fprintln(w)
	}
}

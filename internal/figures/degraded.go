package figures

import (
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// Survival is the degraded-topology figure's measurement: one summary row
// per (engine, failure count) cell of the sweep.
type Survival struct {
	Spec exp.DegradedSpec
	Rows []exp.DegradedRow
}

// FigDegraded measures the degraded-topology survival table — the study
// the paper's production system could not run (it lived with 15 of its
// 197 HyperX links already broken, Sec. 2.3): for each HyperX routing
// engine and failure count, seeded failure-chain variants record survival,
// slowdown, mid-outage goodput, SM re-sweep latency, stranded pairs and
// the deadlock-freedom margin of the final tables as failures climb well
// past the paper's count.
func (s *Session) FigDegraded() (*Survival, error) {
	spec := exp.DegradedSpec{
		Engines: []string{"dfsssp", "hxmin", "hxnm"},
		Workloads: []exp.DegradedWorkload{{
			Name: "imb:alltoall",
			Build: func(n int) (*workloads.Instance, error) {
				return workloads.BuildIMB("alltoall", n, 64<<10)
			},
		}},
		Counts: []int{0, 15, 30, 60, 90}, Variants: 25,
		Nodes: 56, Small: s.P.Small, Seed: s.P.Seed,
	}
	if s.P.Small {
		spec.Counts, spec.Variants, spec.Nodes = []int{0, 3, 6, 9}, 8, 16
	}
	results, err := exp.RunDegraded(s.runner(), spec)
	if err != nil {
		return nil, err
	}
	return &Survival{Spec: spec, Rows: exp.SummarizeDegraded(results)}, nil
}

// Render prints the survival table and writes it to csvDir when set.
func (sv *Survival) Render(w io.Writer, csvDir string) error {
	header(w, fmt.Sprintf("Degraded-topology survival: %d engines x %d failure counts x %d variants (alltoall, %d ranks)",
		len(sv.Spec.Engines), len(sv.Spec.Counts), sv.Spec.Variants, sv.Spec.Nodes))
	const gib = 1 << 30
	var rows [][]string
	tw := tabwriter.NewWriter(w, 4, 0, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "engine\tfailures\tsurvived\tslowdown\tgoodput(GiB/s)\tsweepP50(ms)\tsweepMax(ms)\tunreach(mean/max)\tmargin(min/mean)\t")
	for _, row := range sv.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d/%d\t%+.1f%%\t%.3f\t%.3f\t%.3f\t%.1f/%d\t%.3f/%.3f\t\n",
			row.Engine, row.Failures, row.Survived, row.Variants,
			100*row.SlowdownMed, row.GoodputDuringMed/gib,
			1e3*float64(row.SweepP50Med), 1e3*float64(row.SweepMaxMax),
			row.UnreachableMean, row.UnreachableMax,
			row.MarginMin, row.MarginMean)
		rows = append(rows, []string{row.Engine, strconv.Itoa(row.Failures), strconv.Itoa(row.Variants),
			strconv.Itoa(row.Survived), ftoa(row.SlowdownMed), ftoa(row.GoodputDuringMed),
			ftoa(float64(row.SweepP50Med)), ftoa(float64(row.SweepMaxMax)),
			ftoa(row.UnreachableMean), strconv.Itoa(row.UnreachableMax),
			ftoa(row.MarginMin), ftoa(row.MarginMean)})
	}
	tw.Flush()
	return writeCSV(csvDir, "degraded", []string{"engine", "failures", "variants", "survived",
		"slowdown_med", "goodput_during", "sweep_p50_s", "sweep_max_s",
		"unreach_mean", "unreach_max", "margin_min", "margin_mean"}, rows)
}

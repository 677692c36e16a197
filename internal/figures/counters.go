package figures

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// countersGroup is the shifted-incast group width of the counters figure:
// one switch's worth of HCAs (scaled down from TSUBAME2's 7-plus-1) all
// streaming to a receiver under the next group's subtree.
const countersGroup = 4

// countersMsgSize is the per-sender payload of the counters figure.
const countersMsgSize = 1 << 20

// Counters is the counters figure's measurement: one instrumented run per
// combo under the same workload.
type Counters struct {
	Bench  string
	Nodes  int
	Panels []CounterPanel
}

// CounterPanel is one combo's channel counters at the end of its run.
type CounterPanel struct {
	Combo   exp.Combo
	Chans   *telemetry.ChannelCounters
	Elapsed sim.Duration
}

// incastNodes is the rank count of the counters and planes figures: 64
// (32 on the small planes), capped at MaxNodes and rounded down to whole
// incast groups.
func (s *Session) incastNodes() int {
	n := 64
	if s.P.Small {
		n = 32
	}
	if s.P.MaxNodes > 0 && n > s.P.MaxNodes {
		n = s.P.MaxNodes
	}
	return n - n%countersGroup
}

// FigCounters measures the observability figure the paper built from
// perfquery sweeps (Sec. 2): per-link utilization heatmaps (switch x
// switch XmitData) and top-channel counter tables, Fat-Tree/ftree vs
// HyperX/DFSSSP, under a congesting workload. op selects an IMB
// collective; the default "" runs the grouped shift-incast, whose
// signature is the figure's point — the fat-tree funnels the incasts
// through shared downward links (one hot channel with several converging
// flows) while the HyperX spreads them across direct dimension links.
func (s *Session) FigCounters(op string) (*Counters, error) {
	cs := &Counters{Bench: "shift-incast group " + fmt.Sprint(countersGroup), Nodes: s.incastNodes()}
	build := func(nn int) (*workloads.Instance, error) {
		return workloads.BuildGroupedIncast(nn, countersGroup, countersMsgSize)
	}
	if op != "" {
		cs.Bench = "imb:" + op
		build = func(nn int) (*workloads.Instance, error) {
			return workloads.BuildIMB(op, nn, countersMsgSize)
		}
	}
	combos := exp.PaperCombos()
	for _, c := range []exp.Combo{combos[0], combos[2]} {
		_, _, cols, err := s.countersRun(c, cs.Nodes, build)
		if err != nil {
			return nil, err
		}
		cs.Panels = append(cs.Panels, CounterPanel{Combo: c, Chans: cols[0].Chans, Elapsed: cols[0].Now()})
	}
	return cs, nil
}

// countersRun runs one trial of build on c's machine with channel
// counters on every plane, and returns its score, its messenger and one
// collector per plane.
func (s *Session) countersRun(c exp.Combo, n int, build func(n int) (*workloads.Instance, error)) (
	float64, fabric.Messenger, []*telemetry.Collector, error) {

	m, err := s.Machine(c)
	if err != nil {
		return 0, nil, nil, err
	}
	var msgr fabric.Messenger
	var tm *telemetry.Multi
	var attachErr error
	vals, _, err := exp.RunTrials(exp.TrialSpec{
		Machine: m, Nodes: n, Trials: 1, Seed: s.P.Seed, Build: build,
		Attach: func(_ int, f fabric.Messenger) {
			msgr = f
			tm, attachErr = m.AttachTelemetry(f, telemetry.Options{Counters: true})
		},
	})
	if err = errors.Join(err, attachErr); err != nil {
		return 0, nil, nil, err
	}
	return vals[0], msgr, tm.Planes, nil
}

// Render prints each combo's switch heatmap and hottest channels, and
// writes every channel with traffic to csvDir when set.
func (cs *Counters) Render(w io.Writer, csvDir string) error {
	header(w, fmt.Sprintf("Counters: per-link utilization under %s, %d nodes", cs.Bench, cs.Nodes))
	var rows [][]string
	for _, p := range cs.Panels {
		fmt.Fprintf(w, "\n%s: switch-to-switch XmitData heatmap (rows = source switch)\n", p.Combo.Name)
		switchHeatmap(w, p.Chans.SwitchMatrix())
		fmt.Fprintln(w)
		if err := telemetry.FprintHotLinks(w, p.Chans, 10, p.Elapsed); err != nil {
			return err
		}
		for _, h := range p.Chans.HotLinks(0, p.Elapsed) {
			rows = append(rows, []string{p.Combo.Name, h.From, h.To, ftoa(h.Bytes),
				ftoa(float64(h.Wait)), strconv.Itoa(int(h.HWM))})
		}
	}
	return writeCSV(csvDir, "counters_"+csvName(cs.Bench),
		[]string{"combo", "from", "to", "bytes", "wait_s", "hwm"}, rows)
}

// switchHeatmap prints the switch x switch byte matrix with Fig. 1's
// bucket notation: '.' for an idle cell, 1..9 for the fraction of the
// hottest cell, '#' above 95%.
func switchHeatmap(w io.Writer, m [][]float64) {
	var max float64
	for _, row := range m {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	if max <= 0 {
		fmt.Fprintln(w, "(no inter-switch traffic)")
		return
	}
	for _, row := range m {
		for _, v := range row {
			frac := v / max
			switch {
			case v == 0:
				fmt.Fprint(w, ".")
			case frac > 0.95:
				fmt.Fprint(w, "#")
			default:
				d := int(frac * 10)
				if d == 0 {
					d = 1 // traffic present: never render as idle
				}
				fmt.Fprintf(w, "%d", d)
			}
		}
		fmt.Fprintln(w)
	}
}

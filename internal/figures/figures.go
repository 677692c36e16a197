// Package figures regenerates every table and figure of the paper's
// evaluation (Sec. 5) on the simulated planes: Fig. 1 (mpiGraph heatmaps),
// Table 1 (PARX LID selection), Fig. 4 (IMB collective gain grids),
// Fig. 5a-c (Baidu allreduce, Barrier, eBB), Fig. 6 (proxy apps and x500)
// and Fig. 7 (capacity throughput). Each Session figure method measures
// and returns a typed result; the result's Render writes the plain-text
// figure (grids and whisker rows) and, given a directory, its data series
// as CSV. The benchmark harness and the tests read the results directly.
package figures

import (
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"github.com/hpcsim/t2hx/internal/capacity"
	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/trace"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// Params configure a regeneration session.
type Params struct {
	// MaxNodes caps the scaling ladders (672 reproduces the paper; lower
	// values produce faster, truncated figures).
	MaxNodes int
	// Trials per measurement cell (the paper ran 10).
	Trials int
	// Degrade applies the paper's missing-cable counts.
	Degrade bool
	// Seed drives all randomness.
	Seed uint64
	// Small switches to the 32-node test planes (CI-sized figures).
	Small bool
	// EBBSamples for Fig. 5c (paper: 1000).
	EBBSamples int
	// Sizes optionally restricts the IMB/Baidu message-size ladders.
	Sizes []int64
	// PARXDemands re-routes PARX with each workload's captured
	// communication profile before measuring it (the paper's SAR-style
	// workflow, Sec. 4.4.3). Costly at full scale.
	PARXDemands bool
	// CapacityWindow overrides the 3 h capacity window of Fig. 7.
	CapacityWindow sim.Duration
	// Workers sizes the measurement worker pool for the grid/whisker
	// figures, Fig. 7 and the degraded sweep; <= 0 uses GOMAXPROCS.
	// Results are identical at any setting: cells are measured in parallel
	// but every cell's seed derives from (Seed, node count), and results
	// keep figure order.
	Workers int
}

// Defaults fills unset fields.
func (p Params) withDefaults() Params {
	if p.MaxNodes == 0 {
		if p.Small {
			p.MaxNodes = 32
		} else {
			p.MaxNodes = 672
		}
	}
	if p.Trials == 0 {
		p.Trials = 3
	}
	if p.EBBSamples == 0 {
		p.EBBSamples = 1000
		if p.Small {
			p.EBBSamples = 50
		}
	}
	if p.CapacityWindow == 0 {
		p.CapacityWindow = capacity.Window
		if p.Small {
			p.CapacityWindow = 2 * sim.Minute
		}
	}
	return p
}

// Session shares built machines across figures and their concurrent
// cells: each combo's machine is built once and only read, so neither a
// figure nor its trials' Attach hooks may change its link state.
type Session struct {
	P        Params
	machines exp.MachineCache
}

// NewSession prepares a regeneration session.
func NewSession(p Params) *Session {
	return &Session{P: p.withDefaults()}
}

// runner is the pool the grid/whisker figures measure their cells over.
func (s *Session) runner() exp.Runner {
	return exp.Runner{Workers: s.P.Workers, BaseSeed: s.P.Seed}
}

// machineConfig is the machine every figure measures on.
func (s *Session) machineConfig() exp.MachineConfig {
	return exp.MachineConfig{Degrade: s.P.Degrade, Seed: s.P.Seed, Small: s.P.Small}
}

// Machine returns the session's shared, read-only machine for a combo.
func (s *Session) Machine(c exp.Combo) (*exp.Machine, error) {
	return s.machines.Get(c, s.machineConfig())
}

// parxMachineFor builds a demand-routed PARX plane for one workload
// profile (uncached: profiles differ per workload and rank count).
func (s *Session) parxMachineFor(c exp.Combo, progsBuild func(n int) (*workloads.Instance, error), n int) (*exp.Machine, error) {
	if e, _ := exp.EngineFor(c.Routing); !e.Demands || !s.P.PARXDemands {
		return s.Machine(c)
	}
	base, err := s.Machine(c) // for placement + terminals
	if err != nil {
		return nil, err
	}
	inst, err := progsBuild(n)
	if err != nil {
		return nil, err
	}
	norm := trace.Capture(inst.Progs).Normalize()
	ranks, err := base.Place(n, s.P.Seed)
	if err != nil {
		return nil, err
	}
	db := trace.NewDemandBuilder(base.G.Terminals())
	if err := db.AddJob(norm, ranks); err != nil {
		return nil, err
	}
	cfg := s.machineConfig()
	cfg.Demands = db.Demands()
	return exp.BuildMachine(c, cfg)
}

// ladder returns the node-count ladder capped at MaxNodes.
func (s *Session) ladder(powerOfTwo bool) []int {
	a := workloads.App{PowerOfTwo: powerOfTwo}
	return a.Ladder(s.P.MaxNodes)
}

// cell measures one (combo, nodes, builder) cell and returns the trial
// values.
func (s *Session) cell(c exp.Combo, n int, build func(n int) (*workloads.Instance, error)) ([]float64, error) {
	m, err := s.parxMachineFor(c, build, n)
	if err != nil {
		return nil, err
	}
	vals, _, err := exp.RunTrials(exp.TrialSpec{
		Machine: m, Nodes: n, Trials: s.P.Trials, Seed: s.P.Seed + uint64(n),
		Jitter: exp.TrialJitter, Build: build,
	})
	return vals, err
}

// header prints a figure banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n===== %s =====\n", title)
}

// GainGrid is a Fig. 4-style measurement: one value per (combo, message
// size, node count) cell, each combo compared against the first.
type GainGrid struct {
	// Banner heads the figure; Title heads each combo's grid and names the
	// CSV file.
	Banner, Title string
	Combos        []exp.Combo
	Sizes         []int64
	Nodes         []int
	// Values holds the cells combo-major, then by size, then by nodes.
	Values []float64
	// Better is the metric's direction: both grids plot latencies.
	Better workloads.Direction
}

// Value is the measured value of one cell.
func (g *GainGrid) Value(ci, si, ni int) float64 {
	return g.Values[(ci*len(g.Sizes)+si)*len(g.Nodes)+ni]
}

// Gain is combo ci's gain over the first combo at one cell.
func (g *GainGrid) Gain(ci, si, ni int) float64 {
	return exp.Gain(g.Value(0, si, ni), g.Value(ci, si, ni), g.Better)
}

// gainGrid measures every (combo, size, node) cell over the session's
// pool: build makes a cell's workload, reduce turns its trials into the
// plotted value, and P.Sizes, when set, replaces sizes. Cell values depend
// only on the session seed and the cell's own coordinates (s.cell seeds
// trials with Seed+nodes), so the worker count never changes the grid.
func (s *Session) gainGrid(banner, title string, sizes []int64,
	build func(n int, size int64) (*workloads.Instance, error),
	reduce func(exp.Stats) float64) (*GainGrid, error) {

	if s.P.Sizes != nil {
		sizes = s.P.Sizes
	}
	g := &GainGrid{Banner: banner, Title: title, Combos: exp.PaperCombos(),
		Sizes: sizes, Nodes: s.ladder(false), Better: workloads.LowerIsBetter}
	per := len(g.Sizes) * len(g.Nodes)
	vals, err := exp.ForEach(s.runner(), len(g.Combos)*per, nil,
		func(i int, _ uint64) (float64, error) {
			c, sz, n := g.Combos[i/per], g.Sizes[i%per/len(g.Nodes)], g.Nodes[i%len(g.Nodes)]
			vals, err := s.cell(c, n, func(n int) (*workloads.Instance, error) { return build(n, sz) })
			if err != nil {
				return 0, fmt.Errorf("%s %s n=%d size=%d: %w", title, c.Name, n, sz, err)
			}
			return reduce(exp.Summarize(vals)), nil
		})
	if err != nil {
		return nil, err
	}
	g.Values = vals
	return g, nil
}

// Render prints one gain grid per non-baseline combo (rows = message
// sizes, columns = node counts) and writes the cells to csvDir when set.
func (g *GainGrid) Render(w io.Writer, csvDir string) error {
	header(w, g.Banner)
	var rows [][]string
	base := g.Combos[0]
	for ci := 1; ci < len(g.Combos); ci++ {
		c := g.Combos[ci]
		fmt.Fprintf(w, "\n--- %s: %s (gain vs %s) ---\n", g.Title, c.Name, base.Name)
		tw := tabwriter.NewWriter(w, 4, 0, 1, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "msgsize\\nodes\t")
		for _, n := range g.Nodes {
			fmt.Fprintf(tw, "%d\t", n)
		}
		fmt.Fprintln(tw)
		for si, sz := range g.Sizes {
			fmt.Fprintf(tw, "%d\t", sz)
			for ni, n := range g.Nodes {
				gain := g.Gain(ci, si, ni)
				fmt.Fprintf(tw, "%+.2f\t", gain)
				rows = append(rows, []string{c.Name, strconv.FormatInt(sz, 10), strconv.Itoa(n),
					ftoa(g.Value(ci, si, ni)), ftoa(gain)})
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return writeCSV(csvDir, csvName(g.Title), []string{"combo", "msgsize", "nodes", "value", "gain"}, rows)
}

// Whiskers is a Fig. 5b/6-style measurement: one row per (combo, nodes).
type Whiskers struct {
	Title, Unit string
	Rows        []WhiskerRow
}

// WhiskerRow is one cell's trial distribution and the gain of its best
// value over the first combo's best at the same node count.
type WhiskerRow struct {
	Combo exp.Combo
	Nodes int
	Stats exp.Stats
	Gain  float64
}

// whiskers measures every (combo, nodes) cell over the session's pool (see
// gainGrid for the determinism argument).
func (s *Session) whiskers(title, unit string, nodes []int,
	measure func(c exp.Combo, n int) ([]float64, error),
	better workloads.Direction) (*Whiskers, error) {

	combos := exp.PaperCombos()
	vals, err := exp.ForEach(s.runner(), len(combos)*len(nodes), nil,
		func(i int, _ uint64) ([]float64, error) {
			c, n := combos[i/len(nodes)], nodes[i%len(nodes)]
			vals, err := measure(c, n)
			if err != nil {
				return nil, fmt.Errorf("%s %s n=%d: %w", title, c.Name, n, err)
			}
			return vals, nil
		})
	if err != nil {
		return nil, err
	}
	wh := &Whiskers{Title: title, Unit: unit}
	baseBest := make([]float64, len(nodes)) // the first combo's rows come first
	for i, v := range vals {
		ni := i % len(nodes)
		st := exp.Summarize(v)
		best := st.Best(better)
		if i < len(nodes) {
			baseBest[ni] = best
		}
		wh.Rows = append(wh.Rows, WhiskerRow{Combo: combos[i/len(nodes)], Nodes: nodes[ni],
			Stats: st, Gain: exp.Gain(baseBest[ni], best, better)})
	}
	return wh, nil
}

// Render prints the whisker table (min/q1/median/q3/max and gain) and
// writes it to csvDir when set.
func (wh *Whiskers) Render(w io.Writer, csvDir string) error {
	header(w, wh.Title)
	var rows [][]string
	tw := tabwriter.NewWriter(w, 4, 0, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "combo\tnodes\tmin\tq1\tmedian\tq3\tmax\tgain\t[%s]\n", wh.Unit)
	for _, r := range wh.Rows {
		st := r.Stats
		fmt.Fprintf(tw, "%s\t%d\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%+.2f\t\n",
			r.Combo.Name, r.Nodes, st.Min, st.Q1, st.Median, st.Q3, st.Max, r.Gain)
		rows = append(rows, []string{r.Combo.Name, strconv.Itoa(r.Nodes),
			ftoa(st.Min), ftoa(st.Q1), ftoa(st.Median), ftoa(st.Q3), ftoa(st.Max), ftoa(r.Gain)})
	}
	tw.Flush()
	return writeCSV(csvDir, csvName(wh.Title),
		[]string{"combo", "nodes", "min", "q1", "median", "q3", "max", "gain"}, rows)
}

// csvName slugs a figure title into a file name.
func csvName(title string) string {
	out := make([]rune, 0, len(title))
	for _, r := range title {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r >= 'A' && r <= 'Z':
			out = append(out, r)
		case r == ' ' || r == ':' || r == '/':
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	return string(out)
}

// Table1 prints the PARX LID-selection matrices (Sec. 3.2.1, Table 1).
func Table1(w io.Writer) {
	header(w, "Table 1: PARX virtual destination LID choice")
	for _, large := range []bool{false, true} {
		kind := "(a) small messages"
		if large {
			kind = "(b) large messages"
		}
		fmt.Fprintf(w, "\n%s\n      ", kind)
		for d := core.Q0; d <= core.Q3; d++ {
			fmt.Fprintf(w, "%6s", d)
		}
		fmt.Fprintf(w, "\n")
		for src := core.Q0; src <= core.Q3; src++ {
			fmt.Fprintf(w, "  %s:", src)
			for dst := core.Q0; dst <= core.Q3; dst++ {
				ch := core.LIDChoices(src, dst, large)
				cell := fmt.Sprintf("%d", ch[0])
				if len(ch) == 2 {
					cell = fmt.Sprintf("%d|%d", ch[0], ch[1])
				}
				fmt.Fprintf(w, "%6s", cell)
			}
			fmt.Fprintf(w, "\n")
		}
	}
}

package figures

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// Fig4 measures one panel of Fig. 4: the relative-gain grid of an IMB
// collective (bcast, gather, scatter, reduce, allreduce, alltoall) over
// message sizes and node counts, for the four non-baseline combos. The
// paper plots t_min across the 10 runs.
func (s *Session) Fig4(coll string) (*GainGrid, error) {
	return s.gainGrid(fmt.Sprintf("Figure 4: IMB %s relative gain grids", coll), "Fig4/"+coll,
		workloads.IMBMessageSizes(),
		func(n int, size int64) (*workloads.Instance, error) { return workloads.BuildIMB(coll, n, size) },
		func(st exp.Stats) float64 { return st.Min })
}

// Fig5a measures Baidu's DeepBench ring-allreduce gain grid over
// 4-byte-float array lengths and node counts. Baidu reports average
// latency (Table 2: t_avg).
func (s *Session) Fig5a() (*GainGrid, error) {
	return s.gainGrid("Figure 5a: Baidu DeepBench Allreduce relative gain", "Fig5a",
		workloads.BaiduArrayLengths(),
		func(n int, arrayLen int64) (*workloads.Instance, error) {
			return workloads.BuildBaiduAllreduce(n, arrayLen), nil
		},
		func(st exp.Stats) float64 { return st.Mean })
}

// Fig5b measures the IMB Barrier whiskers (latency in us per barrier);
// the paper's headline here is PARX's 2.8-6.9x slowdown from the untuned
// bfo PML.
func (s *Session) Fig5b() (*Whiskers, error) {
	measure := func(c exp.Combo, n int) ([]float64, error) {
		mk := func(n int) (*workloads.Instance, error) { return workloads.BuildIMB("barrier", n, 1) }
		return s.cell(c, n, mk)
	}
	return s.whiskers("Figure 5b: IMB Barrier", "us", s.ladder(false), measure, workloads.LowerIsBetter)
}

// Fig5c measures Netgauge's effective bisection bandwidth whiskers
// (GiB/s per node pair, 1 MiB messages, random bisections).
func (s *Session) Fig5c() (*Whiskers, error) {
	measure := func(c exp.Combo, n int) ([]float64, error) {
		m, err := s.Machine(c)
		if err != nil {
			return nil, err
		}
		ranks, err := m.Place(n, s.P.Seed)
		if err != nil {
			return nil, err
		}
		f, err := m.NewFabric(s.P.Seed)
		if err != nil {
			return nil, err
		}
		res, err := workloads.EffectiveBisectionBandwidth(f, ranks, s.P.EBBSamples, 1<<20, s.P.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(res.Samples))
		for i, v := range res.Samples {
			out[i] = workloads.GiB(v)
		}
		return out, nil
	}
	// eBB whiskers span the per-sample distribution; the "best" is the max.
	return s.whiskers("Figure 5c: Netgauge effective bisection bandwidth", "GiB/s",
		s.ladder(false), measure, workloads.HigherIsBetter)
}

// Fig6 measures one panel of Fig. 6: whisker rows of the app's metric
// across its scaling ladder for all five combos.
func (s *Session) Fig6(abbrev string) (*Whiskers, error) {
	app, err := workloads.FindApp(abbrev)
	if err != nil {
		return nil, err
	}
	measure := func(c exp.Combo, n int) ([]float64, error) {
		return s.cell(c, n, func(n int) (*workloads.Instance, error) { return app.Instance(n), nil })
	}
	title := fmt.Sprintf("Figure 6: %s (%s, %s scaling, %s)", app.Name, app.Abbrev, app.Scaling, app.Metric)
	return s.whiskers(title, app.Metric, s.ladder(app.PowerOfTwo), measure, app.Better)
}

// Package t2hx's benchmark harness: one testing.B benchmark per paper
// table/figure (regenerating it at CI scale; full scale via cmd/figures),
// plus ablation benches for the design choices called out in DESIGN.md.
// Reported custom metrics carry the reproduction's headline numbers so a
// `go test -bench` run doubles as a shape check.
package t2hx

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/figures"
	"github.com/hpcsim/t2hx/internal/flow"
	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/prof"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/workloads"
)

func benchSession() *figures.Session {
	return figures.NewSession(figures.Params{
		Out: io.Discard, Small: true, Trials: 1, Seed: 1,
		Sizes: []int64{64, 1 << 20}, EBBSamples: 20,
		CapacityWindow: sim.Minute,
	})
}

// BenchmarkTable1 regenerates the PARX LID-selection matrices.
func BenchmarkTable1(b *testing.B) {
	s := benchSession()
	for i := 0; i < b.N; i++ {
		if err := s.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1MpiGraph regenerates the three mpiGraph heatmaps and
// reports the PARX recovery over minimal routing.
func BenchmarkFig1MpiGraph(b *testing.B) {
	var rec float64
	for i := 0; i < b.N; i++ {
		s := benchSession()
		avgs, err := s.Fig1Averages()
		if err != nil {
			b.Fatal(err)
		}
		rec = avgs[2]/avgs[1] - 1
	}
	b.ReportMetric(100*rec, "%PARX-recovery")
}

// BenchmarkFig4 regenerates one IMB gain grid per collective.
func BenchmarkFig4(b *testing.B) {
	for _, coll := range []string{"bcast", "gather", "scatter", "reduce", "allreduce", "alltoall"} {
		coll := coll
		b.Run(coll, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := benchSession()
				if err := s.Fig4(coll); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5aBaidu regenerates the ring-allreduce gain grid.
func BenchmarkFig5aBaidu(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession()
		s.P.Sizes = []int64{1024, 1 << 20}
		if err := s.Fig5a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5bBarrier regenerates the Barrier whiskers.
func BenchmarkFig5bBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession()
		if err := s.Fig5b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5cEBB regenerates the effective-bisection-bandwidth
// whiskers.
func BenchmarkFig5cEBB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession()
		if err := s.Fig5c(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates one whisker panel per application (Fig. 6a-l).
func BenchmarkFig6(b *testing.B) {
	for _, a := range workloads.Registry() {
		a := a
		b.Run(a.Abbrev, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := benchSession()
				if err := s.Fig6(a.Abbrev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7Capacity regenerates the capacity table at CI scale and
// reports the HyperX/DFSSSP/linear gain over the baseline.
func BenchmarkFig7Capacity(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		s := benchSession()
		totals, err := s.Fig7Totals()
		if err != nil {
			b.Fatal(err)
		}
		base := totals["Fat-Tree / ftree / linear"]
		if base > 0 {
			gain = float64(totals["HyperX / DFSSSP / linear"])/float64(base) - 1
		}
	}
	b.ReportMetric(100*gain, "%HX-throughput-gain")
}

// --- routing-engine benches (cost of the subnet-manager side) ---

func benchHX() *topo.HyperX {
	return topo.NewHyperX(topo.HyperXConfig{
		S: []int{6, 4}, T: 4,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
}

// BenchmarkRoutingEngines measures full-table computation on a 6x4 HyperX
// (96 terminals) and on the matching tree.
func BenchmarkRoutingEngines(b *testing.B) {
	b.Run("sssp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hx := benchHX()
			if _, err := route.SSSP(hx.Graph, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dfsssp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hx := benchHX()
			if _, err := route.DFSSSP(hx.Graph, 0, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("updown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hx := benchHX()
			if _, err := route.UpDown(hx.Graph, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hx := benchHX()
			if _, err := core.PARX(hx, core.Config{MaxVL: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ftree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ft := topo.NewKaryNTree(4, 3, topo.QDRBandwidth, topo.QDRLinkLatency)
			if _, err := route.FTree(ft, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- ablation benches (DESIGN.md Sec. 4) ---

// BenchmarkAblationFlowRecompute quantifies the max-min allocator: cost of
// progressive filling as concurrent flows grow.
func BenchmarkAblationFlowRecompute(b *testing.B) {
	for _, nflows := range []int{16, 64, 256, 1024} {
		nflows := nflows
		b.Run(fmt.Sprintf("flows=%d", nflows), func(b *testing.B) {
			hx := benchHX()
			tb, err := route.DFSSSP(hx.Graph, 0, 8)
			if err != nil {
				b.Fatal(err)
			}
			terms := hx.Terminals()
			// Pre-resolve paths.
			var paths [][]topo.ChannelID
			for i := 0; len(paths) < nflows; i++ {
				src := terms[i%len(terms)]
				dst := terms[(i*7+3)%len(terms)]
				if src == dst {
					continue
				}
				p, err := tb.Path(src, tb.BaseLID[tb.TermIndex(dst)])
				if err != nil {
					b.Fatal(err)
				}
				paths = append(paths, p)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				net := flow.NewNetwork(eng, hx.Graph)
				for _, p := range paths {
					net.Start(p, 1e6, func(sim.Time) {})
				}
				eng.Run()
			}
		})
	}
}

// BenchmarkAblationPMLOverhead sweeps the bfo penalty and reports the
// resulting Barrier latency — the knob behind the paper's 2.8-6.9x
// Barrier slowdown.
func BenchmarkAblationPMLOverhead(b *testing.B) {
	for _, penaltyUS := range []float64{0, 1.2, 2.4, 4.8} {
		penaltyUS := penaltyUS
		b.Run(fmt.Sprintf("penalty=%.1fus", penaltyUS), func(b *testing.B) {
			hx := topo.NewHyperX(topo.HyperXConfig{
				S: []int{4, 4}, T: 2,
				Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
			})
			tbl, err := core.PARX(hx, core.Config{MaxVL: 8})
			if err != nil {
				b.Fatal(err)
			}
			var lat float64
			for i := 0; i < b.N; i++ {
				params := fabric.DefaultParams()
				params.BFOPenalty = sim.Duration(penaltyUS) * sim.Microsecond
				f := fabric.New(sim.NewEngine(), tbl, params, 1)
				if err := f.EnableBFO(hx, 0); err != nil {
					b.Fatal(err)
				}
				inst, err := workloads.BuildIMB("barrier", 16, 1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := mpi.Run(f, "barrier", hx.Terminals()[:16], inst.Progs, mpi.Options{})
				if err != nil {
					b.Fatal(err)
				}
				lat = inst.Score(res.Elapsed)
			}
			b.ReportMetric(lat, "us/barrier")
		})
	}
}

// BenchmarkAblationPARXThreshold sweeps the small/large message threshold
// (the paper fixed 512 B, Sec. 3.2.4) and reports mpiGraph average
// bandwidth between two adjacent switches.
func BenchmarkAblationPARXThreshold(b *testing.B) {
	for _, thr := range []int64{64, 512, 65536, 1 << 30} {
		thr := thr
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			hx := topo.NewHyperX(topo.HyperXConfig{
				S: []int{6, 4}, T: 7,
				Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
			})
			tbl, err := core.PARX(hx, core.Config{MaxVL: 8})
			if err != nil {
				b.Fatal(err)
			}
			var avg float64
			for i := 0; i < b.N; i++ {
				f := fabric.New(sim.NewEngine(), tbl, fabric.DefaultParams(), 1)
				if err := f.EnableBFO(hx, thr); err != nil {
					b.Fatal(err)
				}
				ranks := append(hx.TerminalsOf(hx.SwitchAt(0, 0)), hx.TerminalsOf(hx.SwitchAt(1, 0))...)
				avg = workloads.MpiGraph(f, ranks, 1<<20).AvgGiB
			}
			b.ReportMetric(avg, "GiB/s")
		})
	}
}

// BenchmarkAblationPlacement isolates the Sec. 3.1 mitigation: alltoall
// latency under the three placements on the same DFSSSP HyperX.
func BenchmarkAblationPlacement(b *testing.B) {
	combos := map[string]exp.Combo{
		"linear": exp.PaperCombos()[2],
		"random": exp.PaperCombos()[3],
	}
	for name, cmb := range combos {
		cmb := cmb
		b.Run(name, func(b *testing.B) {
			m, err := exp.BuildMachine(cmb, exp.MachineConfig{Small: true, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			var lat float64
			for i := 0; i < b.N; i++ {
				vals, _, err := exp.RunTrials(exp.TrialSpec{
					Machine: m, Nodes: 8, Trials: 1, Seed: 3,
					Build: func(n int) (*workloads.Instance, error) {
						return workloads.BuildIMB("alltoall", n, 1<<20)
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = vals[0]
			}
			b.ReportMetric(lat, "us/op")
		})
	}
}

// BenchmarkAblationTelemetry quantifies the observability tax: the same
// alltoall run with no collector (the nil-hook hot path, which must stay
// within noise of the pre-telemetry baseline), with counters only, and
// with every recording surface on and streaming into null sinks, as
// -metrics-out and -trace-out run it minus the serialization.
func BenchmarkAblationTelemetry(b *testing.B) {
	modes := []struct {
		name string
		opts *telemetry.Options
	}{
		{"disabled", nil},
		{"counters", &telemetry.Options{Counters: true}},
		{"full", &telemetry.Options{Counters: true, Messages: true, Trace: true}},
	}
	m, err := exp.BuildMachine(exp.PaperCombos()[2], exp.MachineConfig{Small: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := exp.TrialSpec{
					Machine: m, Nodes: 16, Trials: 1, Seed: 3,
					Build: func(n int) (*workloads.Instance, error) {
						return workloads.BuildIMB("alltoall", n, 1<<20)
					},
				}
				var col *telemetry.Collector
				if mode.opts != nil {
					spec.Attach = func(_ int, msgr fabric.Messenger) {
						col = telemetry.New(m.G, *mode.opts)
						if mode.opts.Messages {
							col.SetSink(telemetry.NewCountSink())
						}
						if mode.opts.Trace {
							col.SetTraceSink(telemetry.NewCountSink())
						}
						msgr.(*fabric.Fabric).AttachTelemetry(col)
					}
				}
				if _, _, err := exp.RunTrials(spec); err != nil {
					b.Fatal(err)
				}
				if col != nil {
					if err := errors.Join(col.FinishStream(), col.FinishTraceStream()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkExtensionAdaptiveRouting compares the paper's future-work
// scenario (Sec. 7): static PARX/bfo vs. idealized adaptive routing over
// the same PARX path set, on the 7-pair adjacent-switch hotspot. Reported
// metric: adaptive speedup factor.
func BenchmarkExtensionAdaptiveRouting(b *testing.B) {
	hotspot := func(adaptiveMode bool) sim.Time {
		hx := topo.NewHyperX(topo.HyperXConfig{
			S: []int{6, 4}, T: 7,
			Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
		})
		tbl, err := core.PARX(hx, core.Config{MaxVL: 8})
		if err != nil {
			b.Fatal(err)
		}
		f := fabric.New(sim.NewEngine(), tbl, fabric.DefaultParams(), 1)
		if adaptiveMode {
			if err := f.EnableAdaptive(hx); err != nil {
				b.Fatal(err)
			}
		} else if err := f.EnableBFO(hx, 0); err != nil {
			b.Fatal(err)
		}
		src := hx.TerminalsOf(hx.SwitchAt(0, 0))
		dst := hx.TerminalsOf(hx.SwitchAt(1, 0))
		var last sim.Time
		for i := range src {
			f.Send(src[i], dst[i], 4<<20, func(at sim.Time) {
				if at > last {
					last = at
				}
			})
		}
		f.Eng.Run()
		return last
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = float64(hotspot(false)) / float64(hotspot(true))
	}
	b.ReportMetric(speedup, "x-speedup-vs-static-PARX")
}

// BenchmarkCDGInsertion measures the incremental cycle-detection structure
// underlying every deadlock-freedom proof in the repository.
func BenchmarkCDGInsertion(b *testing.B) {
	r := sim.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := route.NewCDG()
		for k := 0; k < 2000; k++ {
			g.AddEdge(topo.ChannelID(r.Intn(200)), topo.ChannelID(r.Intn(200)))
		}
	}
}

// --- sweep-engine benches (DESIGN.md Sec. 8) ---

// BenchmarkSweepParallel measures the multicore sweep engine: one op runs
// a 10-cell mini-sweep (all five paper combos x two alltoall sizes, two
// trials each, small planes) through exp.RunSweep at the given worker
// count. The cells/s metric is what -j buys; the j=8/j=1 ratio is the
// parallel speedup and needs >= 8 host cores to show fully (a 1-CPU
// container reports ~1x). Results are bit-identical across j by
// construction (TestSweepDeterministicAcrossWorkers).
func BenchmarkSweepParallel(b *testing.B) {
	mkCells := func() []exp.SweepCell {
		var cells []exp.SweepCell
		for _, c := range exp.PaperCombos() {
			for _, sz := range []int64{4096, 65536} {
				sz := sz
				cells = append(cells, exp.SweepCell{
					Label: fmt.Sprintf("%s/%d", c.Name, sz),
					Combo: c,
					Cfg:   exp.MachineConfig{Small: true, Degrade: true, Seed: 7},
					Nodes: 16, Trials: 2, Jitter: 0.02,
					Build: func(n int) (*workloads.Instance, error) {
						return workloads.BuildIMB("alltoall", n, sz)
					},
				})
			}
		}
		return cells
	}
	for _, j := range []int{1, 8} {
		j := j
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			cells := mkCells()
			b.ResetTimer()
			done := 0
			for i := 0; i < b.N; i++ {
				res, err := exp.RunSweep(exp.Runner{Workers: j, BaseSeed: 1}, cells)
				if err != nil {
					b.Fatal(err)
				}
				done += len(res)
			}
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkTablesBuild measures routing-table production on the 6x4
// HyperX, cold (a full engine run per op) versus through the content-
// addressed TableCache (hit + rebind per op). The builds/s gap is what the
// cache saves every worker that requests an already-built (topology, mask,
// engine) key.
func BenchmarkTablesBuild(b *testing.B) {
	engines := []struct {
		name string
		lmc  uint8
		run  func(hx *topo.HyperX) (*route.Tables, error)
	}{
		{"sssp", 0, func(hx *topo.HyperX) (*route.Tables, error) { return route.SSSP(hx.Graph, 0) }},
		{"dfsssp", 0, func(hx *topo.HyperX) (*route.Tables, error) { return route.DFSSSP(hx.Graph, 0, 8) }},
		{"updown", 0, func(hx *topo.HyperX) (*route.Tables, error) { return route.UpDown(hx.Graph, 0) }},
		{"parx", core.LMC, func(hx *topo.HyperX) (*route.Tables, error) { return core.PARX(hx, core.Config{MaxVL: 8}) }},
	}
	for _, eng := range engines {
		eng := eng
		b.Run(eng.name+"/cold", func(b *testing.B) {
			hx := benchHX()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.run(hx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "builds/s")
		})
		b.Run(eng.name+"/cached", func(b *testing.B) {
			hx := benchHX()
			cache := exp.NewTableCache(8)
			build := func() (*route.Tables, error) { return eng.run(hx) }
			if _, err := cache.Get(hx.Graph, eng.name, eng.lmc, build); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cache.Get(hx.Graph, eng.name, eng.lmc, build); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "builds/s")
		})
	}
}

// BenchmarkDegradedTables measures routing-table production across a
// degraded-variant chain on the 6x4 HyperX — the inner loop of the
// survival sweeps. Each op walks every prefix of one seeded
// connectivity-preserving failure chain, stepping the graph with
// incremental DownMask deltas (the Zobrist DownHash is the cache key) and
// building tables at each prefix: cold runs the engine per prefix, cached
// hits the TableCache once the prefix has been built. The builds/s gap is
// what hundreds of sweep variants sharing chain prefixes save.
func BenchmarkDegradedTables(b *testing.B) {
	const chainLen = 12
	engines := []struct {
		name string
		run  func(hx *topo.HyperX) (*route.Tables, error)
	}{
		{"dfsssp", func(hx *topo.HyperX) (*route.Tables, error) { return route.DFSSSP(hx.Graph, 0, 8) }},
		{"hxmin", func(hx *topo.HyperX) (*route.Tables, error) { return route.HXMin(hx, 0) }},
		{"hxnm", func(hx *topo.HyperX) (*route.Tables, error) { return route.HXNonMin(hx, 0, 8) }},
	}
	for _, eng := range engines {
		eng := eng
		walk := func(b *testing.B, hx *topo.HyperX, chain []topo.LinkID, build func() error) {
			clean := topo.CaptureDownMask(hx.Graph)
			mask := clean.Clone()
			for _, id := range chain {
				prev := mask.Clone()
				mask.Set(id, true)
				mask.ApplyDelta(hx.Graph, prev)
				if err := build(); err != nil {
					b.Fatal(err)
				}
			}
			clean.ApplyDelta(hx.Graph, mask)
		}
		b.Run(eng.name+"/cold", func(b *testing.B) {
			hx := benchHX()
			chain, err := topo.DegradeChain(hx.Graph, chainLen, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk(b, hx, chain, func() error { _, err := eng.run(hx); return err })
			}
			b.ReportMetric(float64(b.N*chainLen)/b.Elapsed().Seconds(), "builds/s")
		})
		b.Run(eng.name+"/cached", func(b *testing.B) {
			hx := benchHX()
			chain, err := topo.DegradeChain(hx.Graph, chainLen, 7)
			if err != nil {
				b.Fatal(err)
			}
			cache := exp.NewTableCache(chainLen + 1)
			get := func() error {
				_, err := cache.Get(hx.Graph, eng.name, 0, func() (*route.Tables, error) { return eng.run(hx) })
				return err
			}
			walk(b, hx, chain, get) // warm every prefix
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk(b, hx, chain, get)
			}
			b.ReportMetric(float64(b.N*chainLen)/b.Elapsed().Seconds(), "builds/s")
		})
	}
}

// --- flow-solver microbench (DESIGN.md Sec. 7) ---

// solverChurnPaths pre-resolves nflows paths on the 6x4 HyperX under one
// of two contention shapes:
//
//   - "local": flows are spread round-robin over 12 disjoint
//     adjacent-switch pairs (3-channel paths: inject, direct link,
//     deliver), so the contention graph splits into 12 independent
//     components and a churned flow dirties only its own — the shape the
//     solver's dirty-region recompute is built for.
//   - "uniform": DFSSSP-routed paths between scattered terminal pairs,
//     one network-spanning component — the solver's worst case,
//     degenerating into a heap-driven full solve.
func solverChurnPaths(b *testing.B, hx *topo.HyperX, pattern string, nflows int) [][]topo.ChannelID {
	b.Helper()
	g := hx.Graph
	paths := make([][]topo.ChannelID, 0, nflows)
	switch pattern {
	case "local":
		type pair struct {
			a, z   topo.NodeID
			direct topo.ChannelID
		}
		var pairs []pair
		for x := 0; x < 6; x += 2 {
			for y := 0; y < 4; y++ {
				a, z := hx.SwitchAt(x, y), hx.SwitchAt(x+1, y)
				for _, l := range g.UpLinks(a) {
					if l.Other(a) == z {
						pairs = append(pairs, pair{a, z, l.Channel(a)})
						break
					}
				}
			}
		}
		for i := 0; i < nflows; i++ {
			pr := pairs[i%len(pairs)]
			srcs, dsts := hx.TerminalsOf(pr.a), hx.TerminalsOf(pr.z)
			src := srcs[(i/len(pairs))%len(srcs)]
			dst := dsts[(i/len(pairs)+1)%len(dsts)]
			paths = append(paths, []topo.ChannelID{
				g.Nodes[src].Ports[0].Channel(src), pr.direct, g.Nodes[dst].Ports[0].Channel(pr.z),
			})
		}
	case "uniform":
		tb, err := route.DFSSSP(g, 0, 8)
		if err != nil {
			b.Fatal(err)
		}
		terms := hx.Terminals()
		for i := 0; len(paths) < nflows; i++ {
			src := terms[i%len(terms)]
			dst := terms[(i*7+3)%len(terms)]
			if src == dst {
				continue
			}
			p, err := tb.Path(src, tb.BaseLID[tb.TermIndex(dst)])
			if err != nil {
				b.Fatal(err)
			}
			paths = append(paths, p)
		}
	default:
		b.Fatalf("unknown pattern %q", pattern)
	}
	return paths
}

// BenchmarkFlowChurn measures steady-state solver throughput and the
// allocation cost of flow lifecycle churn: with N long-lived concurrent
// flows resident, each op cancels one flow, starts a replacement on the
// same path and settles the rates. flows/s is the churn events absorbed
// per second; ReportAllocs makes B/op and allocs/op expose the per-flow
// storage layout: the arena/SoA flow table must hold steady-state churn
// near zero allocations per op, where the pointer-per-flow layout paid a
// *Flow box plus Path/pos slice headers for every Start. Peak RSS and
// heap/GC metrics ride along in the bench JSON via
// prof.ReportRuntimeMetrics.
func BenchmarkFlowChurn(b *testing.B) {
	for _, pattern := range []string{"local", "uniform"} {
		pattern := pattern
		b.Run(pattern, func(b *testing.B) {
			for _, nflows := range []int{1000, 10000, 100000} {
				nflows := nflows
				b.Run(fmt.Sprintf("flows=%d", nflows), func(b *testing.B) {
					hx := benchHX()
					paths := solverChurnPaths(b, hx, pattern, nflows)
					eng := sim.NewEngine()
					net := flow.NewNetwork(eng, hx.Graph)
					ids := make([]flow.FlowID, nflows)
					for i, p := range paths {
						ids[i] = net.Start(p, 1e15, func(sim.Time) {})
					}
					eng.RunUntil(0)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						k := i % nflows
						net.Cancel(ids[k])
						ids[k] = net.Start(paths[k], 1e15, func(sim.Time) {})
						eng.RunUntil(0)
					}
					b.StopTimer()
					b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows/s")
					prof.ReportRuntimeMetrics(b)
				})
			}
		})
	}
}

// BenchmarkScaleRun measures the end-to-end cost of the windowed
// large-terminal endurance loop (exp.RunScale) at a CI-sized lattice: one
// op is a complete build + route + deliver cycle. msgs/s is the headline
// throughput; B/op (via -benchmem) and peak-rss-B track whether per-flow
// or per-terminal state regresses toward the pre-arena layout, which is
// what decides if the full 12x8 T=342 configuration still fits a build
// machine. The full configuration itself runs via `t2hx -scale` or
// T2HX_SCALE=1 (see EXPERIMENTS.md).
func BenchmarkScaleRun(b *testing.B) {
	const msgs = 20000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunScale(exp.ScaleSpec{
			S: []int{6, 4}, T: 32, // 768 terminals
			Window: 128, Messages: msgs, MsgBytes: 16 * 1024,
			Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered != msgs {
			b.Fatalf("delivered %d of %d", res.Delivered, msgs)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*msgs/b.Elapsed().Seconds(), "msgs/s")
	prof.ReportRuntimeMetrics(b)
}

// --- event-core benches (DESIGN.md Sec. 13) ---

// BenchmarkEventChurn measures the dense event arena at steady state: a
// resident population of self-re-arming ticks plus a tracked pool of
// far-future one-shots, where each op executes one event (its reused
// closure immediately re-arms itself), cancels a one-shot, schedules its
// replacement, and re-sequences another — the four mutation paths of the
// event core. The allocs/op column is the headline: the generation-tagged
// slot arena plus the value-indexed 4-ary heap must hold steady-state churn
// at exactly zero allocations per op (a regression here re-boxes every
// event the endurance runs execute by the hundred million). events/s
// counts executed events.
func BenchmarkEventChurn(b *testing.B) {
	for _, pending := range []int{64, 4096} {
		pending := pending
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			eng := sim.NewEngine()
			const horizon = sim.Duration(1e-6)
			// The executing population: each tick re-arms itself through the
			// SAME closure value, so Step's pop + the re-arm recycle one slot
			// with no allocation.
			var tick func(*sim.Engine)
			tick = func(e *sim.Engine) { e.After(horizon, tick) }
			for i := 0; i < pending; i++ {
				eng.After(horizon*sim.Duration(i+1)/sim.Duration(pending), tick)
			}
			// The churn victims: far-future one-shots that never execute, so
			// the tracked handles stay live across ops.
			noop := func(*sim.Engine) {}
			const far = sim.Duration(3600)
			victims := make([]sim.EventID, 64)
			for i := range victims {
				victims[i] = eng.After(far, noop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(victims)
				eng.Cancel(victims[k])
				victims[k] = eng.After(far, noop)
				if !eng.Reschedule(victims[(k+1)%len(victims)], eng.Now()+far) {
					b.Fatal("live victim handle went stale")
				}
				eng.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkScaleInstrumented holds the tentpole claim of DESIGN.md §13 to a
// number: the windowed endurance loop with the FULL observability stack
// attached (channel counters, per-message records, engine probe, streaming
// sink) versus the blind run, at the same CI-sized lattice as
// BenchmarkScaleRun. With region-local counter integration and the
// allocation-free event core, the instrumented msgs/s must stay within 15%
// of detached (EXPERIMENTS.md records the measured gap); before this, the
// counter-attached run paid an O(live-flows) advanceAll on every settle and
// was budgeted separately.
func BenchmarkScaleInstrumented(b *testing.B) {
	const msgs = 20000
	for _, mode := range []struct {
		name string
		inst bool
	}{
		{"detached", false},
		{"instrumented", true},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				res, err := exp.RunScale(exp.ScaleSpec{
					S: []int{6, 4}, T: 32, // 768 terminals
					Window: 128, Messages: msgs, MsgBytes: 16 * 1024,
					Seed: 1, Instrumented: mode.inst,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Delivered != msgs {
					b.Fatalf("delivered %d of %d", res.Delivered, msgs)
				}
				events = res.Events
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*msgs/b.Elapsed().Seconds(), "msgs/s")
			b.ReportMetric(float64(b.N)*float64(events)/b.Elapsed().Seconds(), "events/s")
			prof.ReportRuntimeMetrics(b)
		})
	}
}

// Package t2hx's benchmark harness: one testing.B benchmark per paper
// table/figure (measuring it at CI scale; full scale via
// `go run ./cmd/figures <figure>`, e.g. `figures 4 -coll alltoall`),
// plus ablation benches for the design choices called out in DESIGN.md.
// Reported custom metrics carry the reproduction's headline numbers so a
// `go test -bench` run doubles as a shape check. They are experiment
// drivers with no committed baseline: `make bench` runs each once and
// fails on any error, and host speed is measured by hxbench
// (hxbench/README.md).
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
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/workloads"
)

func benchSession() *figures.Session {
	return figures.NewSession(figures.Params{
		Small: true, Trials: 1, Seed: 1,
		Sizes: []int64{64, 1 << 20}, EBBSamples: 20,
		CapacityWindow: sim.Minute,
	})
}

// BenchmarkTable1 renders the PARX LID-selection matrices.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Table1(io.Discard)
	}
}

// BenchmarkFig1MpiGraph measures the three mpiGraph heatmaps and reports
// the PARX recovery over minimal routing.
func BenchmarkFig1MpiGraph(b *testing.B) {
	var rec float64
	for i := 0; i < b.N; i++ {
		g, err := benchSession().Fig1()
		if err != nil {
			b.Fatal(err)
		}
		rec = g.Results[2].AvgGiB/g.Results[1].AvgGiB - 1
	}
	b.ReportMetric(100*rec, "%PARX-recovery")
}

// BenchmarkFig4 measures one IMB gain grid per collective.
func BenchmarkFig4(b *testing.B) {
	for _, coll := range []string{"bcast", "gather", "scatter", "reduce", "allreduce", "alltoall"} {
		coll := coll
		b.Run(coll, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchSession().Fig4(coll); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5aBaidu measures the ring-allreduce gain grid.
func BenchmarkFig5aBaidu(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession()
		s.P.Sizes = []int64{1024, 1 << 20}
		if _, err := s.Fig5a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5bBarrier measures the Barrier whiskers.
func BenchmarkFig5bBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSession().Fig5b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5cEBB measures the effective-bisection-bandwidth whiskers.
func BenchmarkFig5cEBB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSession().Fig5c(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 measures one whisker panel per application (Fig. 6a-l).
func BenchmarkFig6(b *testing.B) {
	for _, a := range workloads.Registry() {
		a := a
		b.Run(a.Abbrev, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchSession().Fig6(a.Abbrev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7Capacity measures the capacity table at CI scale and
// reports the HyperX/DFSSSP/linear gain over the baseline.
func BenchmarkFig7Capacity(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		c, err := benchSession().Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if base := c.Results[0].Total; base > 0 {
			gain = float64(c.Results[2].Total)/float64(base) - 1
		}
	}
	b.ReportMetric(100*gain, "%HX-throughput-gain")
}

// BenchmarkDenseAlltoall times the dense-collective regime hxbench does
// not reach (ROADMAP item 2): the 112-node 1 MiB alltoall cell of
// `figures 4 -coll alltoall -sizes 1048576 -trials 1` on the degraded
// paper Fat-Tree under SSSP routing and clustered placement (seed 1),
// one trial through exp.RunTrials. The machine is built once, outside the
// timed loop. The solver's bottleneck rounds per settle, and those that
// also scanned lone channels, come from the network's work counters and
// read the same on every host.
func BenchmarkDenseAlltoall(b *testing.B) {
	const seed, nodes = 1, 112
	m, err := exp.BuildMachine(exp.PaperCombos()[1], exp.MachineConfig{Degrade: true, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	var net *flow.Network
	spec := exp.TrialSpec{
		Machine: m, Nodes: nodes, Trials: 1, Seed: seed + nodes, Jitter: exp.TrialJitter,
		Build: func(n int) (*workloads.Instance, error) {
			return workloads.BuildIMB("alltoall", n, 1<<20)
		},
		Attach: func(_ int, msgr fabric.Messenger) { net = msgr.(*fabric.Fabric).Net },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.RunTrials(spec); err != nil {
			b.Fatal(err)
		}
	}
	settles := float64(net.Recomputes)
	b.ReportMetric(float64(net.Rounds)/settles, "rounds/settle")
	b.ReportMetric(float64(net.LoneRounds)/settles, "lone-rounds/settle")
}

// --- routing-engine benches (cost of the subnet-manager side) ---

func benchHX() *topo.HyperX {
	return topo.NewHyperX(topo.HyperXConfig{
		S: []int{6, 4}, T: 4,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
}

// BenchmarkRoutingEngines times what one subnet-manager re-sweep runs on
// the degraded paper planes (seed 1): an engine's full table build plus
// route.Validate. Each engine routes the plane its paper combo uses; the
// planes are built once, outside the timed loop.
func BenchmarkRoutingEngines(b *testing.B) {
	hx := topo.NewPaperHyperX(true, 1)
	ft := topo.NewPaperFatTree(true, 1)
	for _, e := range []struct {
		name  string
		build func() (*route.Tables, error)
	}{
		{"ftree", func() (*route.Tables, error) { return route.FTree(ft, 0) }},
		{"sssp", func() (*route.Tables, error) { return route.SSSP(ft.Graph, 0) }},
		{"dfsssp", func() (*route.Tables, error) { return route.DFSSSP(hx.Graph, 0, 8) }},
		{"updown", func() (*route.Tables, error) { return route.UpDown(hx.Graph, 0) }},
		{"parx", func() (*route.Tables, error) { return core.PARX(hx, core.Config{MaxVL: 8}) }},
	} {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb, err := e.build()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := route.Validate(tb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
// bandwidth between two adjacent switches (ablationPARXThresholdGiB).
func BenchmarkAblationPARXThreshold(b *testing.B) {
	for _, thr := range []int64{64, 512, 65536, 1 << 30} {
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				avg = ablationPARXThresholdGiB(b, thr)
			}
			b.ReportMetric(avg, "GiB/s")
		})
	}
}

// BenchmarkAblationPlacement isolates the Sec. 3.1 mitigation: alltoall
// latency under linear and random placement on the same DFSSSP HyperX
// (ablationPlacementUS).
func BenchmarkAblationPlacement(b *testing.B) {
	for _, cmb := range placementCombos() {
		b.Run(string(cmb.Placement), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = ablationPlacementUS(b, cmb)
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

// --- observability tax (DESIGN.md Sec. 13) ---

// BenchmarkScaleInstrumented times the observability tax of DESIGN.md §13:
// the windowed endurance loop (exp.RunScale on a CI-sized 768-terminal
// lattice) with the FULL observability stack attached (channel counters,
// per-message records, engine probe, streaming sink) versus the blind run.
// With region-local counter integration and the allocation-free event
// core, the instrumented msgs/s should stay within 15% of detached
// (EXPERIMENTS.md records the measured gap); before this, the
// counter-attached run paid an O(live-flows) advanceAll on every settle and
// was budgeted separately. TestRunScaleSmall checks that both arms
// simulate the same run.
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
		})
	}
}

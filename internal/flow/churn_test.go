package flow

import (
	"fmt"
	"testing"

	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// dfssspRouter routes terminal pairs of hx over its DFSSSP tables.
func dfssspRouter(tb testing.TB, hx *topo.HyperX) func(src, dst topo.NodeID) []topo.ChannelID {
	tb.Helper()
	tbl, err := route.DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return func(src, dst topo.NodeID) []topo.ChannelID {
		p, err := tbl.Path(src, tbl.BaseLID[tbl.TermIndex(dst)])
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
}

// churnPaths builds nflows terminal-to-terminal paths on hx. "local" pins
// every flow to one of 12 disjoint adjacent-switch cables (12 contention
// components); "uniform" routes strided terminal pairs over DFSSSP tables
// (on churnHX, 59 contention components of at most 12 channels).
func churnPaths(tb testing.TB, hx *topo.HyperX, pattern string, nflows int) [][]topo.ChannelID {
	tb.Helper()
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
		route := dfssspRouter(tb, hx)
		terms := hx.Terminals()
		for i := 0; len(paths) < nflows; i++ {
			src, dst := terms[i%len(terms)], terms[(i*7+3)%len(terms)]
			if src != dst {
				paths = append(paths, route(src, dst))
			}
		}
	default:
		tb.Fatalf("unknown churn pattern %q", pattern)
	}
	return paths
}

// churnHX is the 6x4 T=4 HyperX (96 terminals) both churn checks run on.
func churnHX() *topo.HyperX {
	return topo.NewHyperX(topo.HyperXConfig{
		S: []int{6, 4}, T: 4,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
}

// TestFlowChurnAllocFree is the flow table's steady-state allocation
// contract, the flow-layer twin of sim.TestEngineSteadyStateAllocFree.
// With about 1,000 long-lived flows resident, two ops allocate nothing once
// the arena, free list, completion queue and solver scratch have warmed
// up: churn cancels one flow, starts its replacement on the same path and
// settles the rates; complete starts a 1 kB flow on the next path and
// steps the engine until that flow completes. Afterwards the completion
// queue holds exactly one prediction per resident flow.
func TestFlowChurnAllocFree(t *testing.T) {
	const nflows = 1000
	done := func(sim.Time) {}
	for _, pattern := range []string{"local", "uniform"} {
		t.Run(pattern, func(t *testing.T) {
			hx := churnHX()
			paths := churnPaths(t, hx, pattern, nflows)
			eng := sim.NewEngine()
			net := NewNetwork(eng, hx.Graph)
			ids := make([]FlowID, nflows)
			for i, p := range paths {
				ids[i] = net.Start(p, 1e15, done)
			}
			eng.RunUntil(eng.Now())
			k := 0
			churn := func() {
				net.Cancel(ids[k])
				ids[k] = net.Start(paths[k], 1e15, done)
				eng.RunUntil(eng.Now())
				k = (k + 1) % nflows
			}
			finished := false
			finish := func(sim.Time) { finished = true }
			complete := func() {
				finished = false
				net.Start(paths[k], 1e3, finish)
				for !finished && eng.Step() {
				}
				if !finished {
					t.Fatal("engine drained before the 1 kB flow completed")
				}
				k = (k + 1) % nflows
			}
			for _, op := range []struct {
				name string
				fn   func()
			}{{"churn", churn}, {"complete", complete}} {
				for range ids { // warm up: every path once
					op.fn()
				}
				if allocs := testing.AllocsPerRun(500, op.fn); allocs != 0 {
					t.Errorf("steady-state flow %s allocates %v allocs/op, want 0", op.name, allocs)
				}
			}
			eng.RunUntil(eng.Now())
			if got := net.Active(); got != nflows {
				t.Errorf("%d flows active after churn, want %d", got, nflows)
			}
			if got := net.done.Len(); got != nflows {
				t.Errorf("completion queue holds %d predictions, want %d", got, nflows)
			}
		})
	}
}

// BenchmarkFlowChurn measures steady-state solver throughput and the
// allocation cost of flow lifecycle churn: with N long-lived concurrent
// flows resident, each op cancels one flow, starts a replacement on the
// same path and settles the rates. flows/s is the churn events absorbed
// per second; allocs/op must read 0 at every N, the contract
// TestFlowChurnAllocFree asserts at 1k flows.
func BenchmarkFlowChurn(b *testing.B) {
	done := func(sim.Time) {}
	for _, pattern := range []string{"local", "uniform"} {
		b.Run(pattern, func(b *testing.B) {
			for _, nflows := range []int{1000, 10000, 100000} {
				b.Run(fmt.Sprintf("flows=%d", nflows), func(b *testing.B) {
					hx := churnHX()
					paths := churnPaths(b, hx, pattern, nflows)
					eng := sim.NewEngine()
					net := NewNetwork(eng, hx.Graph)
					ids := make([]FlowID, nflows)
					for i, p := range paths {
						ids[i] = net.Start(p, 1e15, done)
					}
					eng.RunUntil(0)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						k := i % nflows
						net.Cancel(ids[k])
						ids[k] = net.Start(paths[k], 1e15, done)
						eng.RunUntil(0)
					}
					b.StopTimer()
					b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows/s")
				})
			}
		})
	}
}

package flow

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// churnPaths builds nflows terminal-to-terminal paths on hx. "local" pins
// every flow to one of 12 disjoint adjacent-switch cables (12 contention
// components); "uniform" routes strided terminal pairs over DFSSSP tables
// (one network-spanning component).
func churnPaths(t *testing.T, hx *topo.HyperX, pattern string, nflows int) [][]topo.ChannelID {
	t.Helper()
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
			t.Fatal(err)
		}
		terms := hx.Terminals()
		for i := 0; len(paths) < nflows; i++ {
			src, dst := terms[i%len(terms)], terms[(i*7+3)%len(terms)]
			if src == dst {
				continue
			}
			p, err := tb.Path(src, tb.BaseLID[tb.TermIndex(dst)])
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
	}
	return paths
}

// TestFlowChurnAllocFree is the flow table's steady-state allocation
// contract, the flow-layer twin of sim.TestEngineSteadyStateAllocFree:
// with about 1,000 long-lived flows resident, cancelling one, starting its
// replacement on the same path and settling the rates allocates nothing
// once the arena, free list and solver scratch have warmed up.
func TestFlowChurnAllocFree(t *testing.T) {
	const nflows = 1000
	done := func(sim.Time) {}
	for _, pattern := range []string{"local", "uniform"} {
		t.Run(pattern, func(t *testing.T) {
			hx := topo.NewHyperX(topo.HyperXConfig{
				S: []int{6, 4}, T: 4,
				Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
			})
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
			for range ids { // warm up: recycle every slot once
				churn()
			}
			if allocs := testing.AllocsPerRun(500, churn); allocs != 0 {
				t.Errorf("steady-state flow churn allocates %v allocs/op, want 0", allocs)
			}
			if got := net.Active(); got != nflows {
				t.Errorf("%d flows active after churn, want %d", got, nflows)
			}
		})
	}
}

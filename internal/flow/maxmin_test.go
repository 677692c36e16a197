package flow

import (
	"testing"
	"testing/quick"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// TestMaxMinProperty verifies the defining property of a max-min fair
// allocation on random flow sets: every flow is bottlenecked, i.e. its
// recorded bottleneck is a saturated channel on which no other flow has a
// strictly higher rate (certifyMaxMin).
func TestMaxMinProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		hx := topo.NewHyperX(topo.HyperXConfig{S: []int{3, 3}, T: 2, Bandwidth: 1e6, Latency: 0})
		g := hx.Graph
		eng := sim.NewEngine()
		net := NewNetwork(eng, g)
		terms := g.Terminals()
		nflows := 5 + r.Intn(25)
		for k := 0; k < nflows; k++ {
			a := terms[r.Intn(len(terms))]
			b := terms[r.Intn(len(terms))]
			if a == b {
				continue
			}
			swA, swB := hx.SwitchOf(a), hx.SwitchOf(b)
			p := []topo.ChannelID{g.Nodes[a].Ports[0].Channel(a)}
			if swA != swB {
				// Random 1- or 2-hop switch path within the lattice.
				var mid topo.NodeID = -1
				var direct *topo.Link
				for _, l := range g.UpLinks(swA) {
					o := l.Other(swA)
					if o == swB {
						direct = l
					} else if g.Nodes[o].Kind == topo.Switch {
						for _, l2 := range g.UpLinks(o) {
							if l2.Other(o) == swB {
								mid = o
							}
						}
					}
				}
				if direct != nil && (mid < 0 || r.Intn(2) == 0) {
					p = append(p, direct.Channel(swA))
				} else if mid >= 0 {
					var l1, l2 *topo.Link
					for _, l := range g.UpLinks(swA) {
						if l.Other(swA) == mid {
							l1 = l
						}
					}
					for _, l := range g.UpLinks(mid) {
						if l.Other(mid) == swB {
							l2 = l
						}
					}
					p = append(p, l1.Channel(swA), l2.Channel(mid))
				} else {
					continue
				}
			}
			p = append(p, g.Nodes[b].Ports[0].Channel(swB))
			net.Start(p, 1e9, func(sim.Time) {})
		}
		if net.Active() == 0 {
			return true
		}
		eng.Step() // settle: rates computed
		if err := certifyMaxMin(net); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

package topo

import (
	"errors"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
)

// Regression for the paper's broken-cable counts: both planes must absorb
// the full Sec. 2.3 degradation without a shortfall (and without
// disconnecting the switch fabric).
func TestDegradePaperCountsNoShortfall(t *testing.T) {
	for _, seed := range []uint64{1, 42, 1234} {
		hx := NewPaperHyperX(false, 0)
		downed, err := DegradeSwitchLinks(hx.Graph, PaperHyperXMissingAOCs, seed)
		if err != nil {
			t.Errorf("hyperx seed=%d: %v", seed, err)
		}
		if len(downed) != PaperHyperXMissingAOCs {
			t.Errorf("hyperx seed=%d: downed %d, want %d", seed, len(downed), PaperHyperXMissingAOCs)
		}
		if !SwitchFabricConnected(hx.Graph) {
			t.Errorf("hyperx seed=%d: switch fabric disconnected", seed)
		}

		ft := NewPaperFatTree(false, 0)
		downed, err = DegradeSwitchLinks(ft.Graph, PaperFatTreeMissingLinks, seed)
		if err != nil {
			t.Errorf("fattree seed=%d: %v", seed, err)
		}
		if len(downed) != PaperFatTreeMissingLinks {
			t.Errorf("fattree seed=%d: downed %d, want %d", seed, len(downed), PaperFatTreeMissingLinks)
		}
		if !SwitchFabricConnected(ft.Graph) {
			t.Errorf("fattree seed=%d: switch fabric disconnected", seed)
		}
	}
}

// When the request exceeds what connectivity allows, the shortfall must be
// reported, not silently swallowed.
func TestDegradeReportsShortfall(t *testing.T) {
	hx := NewHyperX(HyperXConfig{S: []int{2, 2}, T: 1, Bandwidth: 1e9, Latency: 1e-7})
	total := len(hx.LiveSwitchLinks())
	downed, err := DegradeSwitchLinks(hx.Graph, total, 7)
	if err == nil {
		t.Fatalf("downing all %d switch links reported no shortfall (downed %d)", total, len(downed))
	}
	if !errors.Is(err, ErrDegradeShortfall) {
		t.Errorf("error %v does not wrap ErrDegradeShortfall", err)
	}
	if len(downed) >= total {
		t.Errorf("downed %d of %d links; the fabric cannot stay connected", len(downed), total)
	}
	if !SwitchFabricConnected(hx.Graph) {
		t.Error("shortfall path disconnected the switch fabric")
	}
	// Degrading more links than exist is also a shortfall, not a crash.
	ft := NewKaryNTree(2, 2, 1e9, 1e-7)
	if _, err := DegradeSwitchLinks(ft.Graph, 10_000, 3); !errors.Is(err, ErrDegradeShortfall) {
		t.Errorf("oversized request: err = %v, want ErrDegradeShortfall", err)
	}
}

// The failure planner is pinned by the down sets it gives the paper planes:
// a change to the pick (shuffle, probe order, connectivity veto) moves
// these hashes, and with them every degraded result in the repository.
func TestPaperDegradationDownHashPinned(t *testing.T) {
	for _, c := range []struct {
		seed   uint64
		hx, ft uint64
	}{
		{1, 0x392417ce14837948, 0x61a873aae75ea2ee},
		{42, 0xd02f099a4315a446, 0xb41d479c62f10486},
	} {
		if got := NewPaperHyperX(true, c.seed).DownHash(); got != c.hx {
			t.Errorf("NewPaperHyperX(true, %d).DownHash() = %#x, want %#x", c.seed, got, c.hx)
		}
		if got := NewPaperFatTree(true, c.seed).DownHash(); got != c.ft {
			t.Errorf("NewPaperFatTree(true, %d).DownHash() = %#x, want %#x", c.seed, got, c.ft)
		}
	}
}

// Every prefix of a DegradeChain must keep the switch fabric connected:
// that is the property letting one seeded chain serve every failure count
// of a sweep variant. Planning itself must leave the graph untouched.
func TestDegradeChainPrefixConnectivity(t *testing.T) {
	hx := small2DHyperX()
	const n = 14
	chain, err := DegradeChain(hx.Graph, n, sim.NewRand(42))
	if err != nil {
		t.Fatalf("DegradeChain: %v", err)
	}
	if h := hx.DownHash(); h != 0 {
		t.Fatalf("DegradeChain left links down (DownHash %#x)", h)
	}
	if len(chain) != n {
		t.Fatalf("chain has %d links, want %d", len(chain), n)
	}
	seen := map[LinkID]bool{}
	for i, id := range chain {
		l := hx.Links[id]
		if hx.Nodes[l.A].Kind != Switch || hx.Nodes[l.B].Kind != Switch {
			t.Fatalf("chain link %d is not a switch link", id)
		}
		if seen[id] {
			t.Fatalf("chain repeats link %d", id)
		}
		seen[id] = true
		l.Down = true
		if !SwitchFabricConnected(hx.Graph) {
			t.Fatalf("prefix %d disconnects the switch fabric", i+1)
		}
	}

	// Same (graph shape, seed) must give the same chain: sweep variants
	// share chains across engines by relying on this.
	hx2 := small2DHyperX()
	chain2, err := DegradeChain(hx2.Graph, n, sim.NewRand(42))
	if err != nil {
		t.Fatalf("DegradeChain (second build): %v", err)
	}
	for i := range chain {
		if chain[i] != chain2[i] {
			t.Fatalf("chain diverges at %d: %d vs %d", i, chain[i], chain2[i])
		}
	}
}

// degradeChainWholeFabric is the failure planner with its former probe: a
// whole-fabric search per candidate instead of a search from one end of
// the candidate to the other. DegradeChain must pick the same chain.
func degradeChainWholeFabric(g *Graph, n int, rng *sim.Rand) []LinkID {
	candidates := g.LiveSwitchLinks()
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	var chain []LinkID
	for _, l := range candidates {
		if len(chain) == n {
			break
		}
		l.Down = true
		if SwitchFabricConnected(g) {
			chain = append(chain, l.ID)
		} else {
			l.Down = false
		}
	}
	for _, id := range chain {
		g.Links[id].Down = false
	}
	return chain
}

// The targeted probe picks the chain the whole-fabric probe picks, on both
// paper planes and both small planes, at their degradation counts and at
// counts deep enough that connectivity vetoes candidates (the Fat-Tree at
// 400 in 14 of the 20 seeds) or runs short (the small planes at 40). A
// fabric that starts disconnected keeps no link under either probe.
func TestDegradeChainMatchesWholeFabricProbe(t *testing.T) {
	smallHX := func() *Graph {
		return NewHyperX(HyperXConfig{S: []int{4, 4}, T: 2, Bandwidth: QDRBandwidth, Latency: QDRLinkLatency}).Graph
	}
	planes := []struct {
		name   string
		build  func() *Graph
		counts []int
	}{
		{"paper hyperx", func() *Graph { return NewPaperHyperX(false, 0).Graph }, []int{PaperHyperXMissingAOCs}},
		{"paper fattree", func() *Graph { return NewPaperFatTree(false, 0).Graph }, []int{PaperFatTreeMissingLinks, 400}},
		{"small hyperx", smallHX, []int{2, 30, 40}},
		{"small fattree", func() *Graph {
			return NewXGFT(XGFTConfig{M: []int{2, 4, 4}, W: []int{1, 3, 2}, Bandwidth: QDRBandwidth, Latency: QDRLinkLatency}).Graph
		}, []int{4, 20, 40}},
		{"disconnected small hyperx", func() *Graph {
			g := smallHX()
			for _, l := range g.Nodes[g.Switches()[0]].Ports {
				if g.Nodes[l.Other(g.Switches()[0])].Kind == Switch {
					l.Down = true
				}
			}
			return g
		}, []int{0, 1, 5}},
	}
	for _, p := range planes {
		g := p.build()
		before := g.DownHash()
		for _, n := range p.counts {
			for seed := uint64(1); seed <= 20; seed++ {
				want := degradeChainWholeFabric(g, n, sim.NewRand(seed))
				got, err := DegradeChain(g, n, sim.NewRand(seed))
				if len(got) != len(want) {
					t.Fatalf("%s n=%d seed=%d: chain of %d links, whole-fabric probe keeps %d", p.name, n, seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d seed=%d: chain diverges at %d: link %d, whole-fabric probe keeps %d", p.name, n, seed, i, got[i], want[i])
					}
				}
				if (len(got) < n) != errors.Is(err, ErrDegradeShortfall) || (err != nil && len(got) == n) {
					t.Fatalf("%s n=%d seed=%d: %d links kept, err = %v", p.name, n, seed, len(got), err)
				}
				if g.DownHash() != before {
					t.Fatalf("%s n=%d seed=%d: planning changed the link state", p.name, n, seed)
				}
			}
		}
	}
}

package flow

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// This file holds the two test-side judges of the solver: an oracle that
// recomputes the max-min allocation from scratch, and a certificate that
// checks an allocation is max-min fair without computing one.

// maxMinOracle is textbook progressive filling over (capacities, paths):
// repeatedly take the channel with the smallest fair share (residual
// capacity over the unfrozen flows crossing it), freeze those flows at that
// share and subtract it along their paths. Shares within 1e-9 relative of
// the smallest count as tied and the smallest channel ID among them wins,
// so the returned bottlenecks are comparable with the solver's, not only
// the rates. Paths may come in any order: the flows on a bottleneck freeze
// in slice order, and each subtracts the same share along its path, so the
// result is bit-identical for every order
// (TestSolverMatchesOracleOnLargeComponents).
func maxMinOracle(caps []float64, paths [][]topo.ChannelID) ([]float64, []topo.ChannelID) {
	residual := append([]float64(nil), caps...)
	unfrozen := make([]int, len(caps))
	on := make([][]int, len(caps))
	for i, p := range paths {
		for _, c := range p {
			unfrozen[c]++
			on[c] = append(on[c], i)
		}
	}
	share := func(c int) float64 { return residual[c] / float64(unfrozen[c]) }
	rates := make([]float64, len(paths))
	bott := make([]topo.ChannelID, len(paths))
	frozen := make([]bool, len(paths))
	for left := len(paths); left > 0; {
		low := math.Inf(1)
		for c, u := range unfrozen {
			if u > 0 && share(c) < low {
				low = share(c)
			}
		}
		pick := -1
		for c, u := range unfrozen {
			if u > 0 && math.Abs(share(c)-low) <= 1e-9*math.Max(share(c), low) {
				pick = c
				break
			}
		}
		s := share(pick)
		for _, i := range on[pick] {
			if frozen[i] {
				continue
			}
			frozen[i] = true
			rates[i], bott[i] = s, topo.ChannelID(pick)
			left--
			for _, c := range paths[i] {
				residual[c] -= s
				if residual[c] < 0 {
					residual[c] = 0
				}
				unfrozen[c]--
			}
		}
	}
	return rates, bott
}

// certifyMaxMin checks that the network's current allocation is max-min
// fair: no channel carries more than its capacity, every live flow has a
// positive rate, and every flow's recorded bottleneck — the channel its
// XmitWait is charged to — is on its path, is saturated, and carries no
// flow with a higher rate. Capacity and saturation are checked to 1e-9
// relative, rate order to shareEps relative: that is the solver's own tie
// tolerance, under which an epsilon-tied bottleneck freezes at its own
// share, so two rates on one channel may legitimately differ by that much.
func certifyMaxMin(n *Network) error {
	t := &n.tab
	usage := make([]float64, len(n.caps))
	maxRate := make([]float64, len(n.caps))
	for _, idx := range t.liveList {
		if t.zeroEv[idx] != 0 {
			continue
		}
		r := t.rate[idx]
		if !(r > 0) {
			return fmt.Errorf("flow %d has non-positive rate %v", handleOf(idx, t.gen[idx]), r)
		}
		for _, c := range t.path(idx) {
			usage[c] += r
			maxRate[c] = math.Max(maxRate[c], r)
		}
	}
	for c, u := range usage {
		if u > n.caps[c]*(1+1e-9) {
			return fmt.Errorf("channel %d over capacity: %v > %v", c, u, n.caps[c])
		}
	}
	for _, idx := range t.liveList {
		if t.zeroEv[idx] != 0 {
			continue
		}
		id, b, r := handleOf(idx, t.gen[idx]), t.bott[idx], t.rate[idx]
		onPath := false
		for _, c := range t.path(idx) {
			onPath = onPath || c == b
		}
		switch {
		case !onPath:
			return fmt.Errorf("flow %d: bottleneck %d not on its path", id, b)
		case usage[b] < n.caps[b]*(1-1e-9):
			return fmt.Errorf("flow %d: bottleneck %d not saturated: %v < %v", id, b, usage[b], n.caps[b])
		case r < maxRate[b]*(1-shareEps):
			return fmt.Errorf("flow %d: bottleneck %d carries a higher rate %v > %v", id, b, maxRate[b], r)
		}
	}
	return nil
}

// TestCertificateCatchesCorruptAllocations corrupts a settled allocation
// three ways and requires the certificate to reject each one.
func TestCertificateCatchesCorruptAllocations(t *testing.T) {
	g, fwd, _ := lineGraph(1000)
	e := sim.NewEngine()
	n := NewNetwork(e, g)
	node := n.AddNodeChannels(1, 4000)
	// A crosses the node channel and the whole line, B only the middle
	// channel: both freeze at 500 B/s on the middle channel, which leaves
	// A's first line channel and the node channel half used.
	idA := n.Start(append([]topo.ChannelID{node}, fwd...), 1e9, func(sim.Time) {})
	n.Start(fwd[1:2], 1e9, func(sim.Time) {})
	e.RunUntil(0)
	if err := certifyMaxMin(n); err != nil {
		t.Fatalf("settled allocation rejected: %v", err)
	}
	a, _ := n.lookup(idA)
	if n.tab.bott[a] != fwd[1] || n.tab.rate[a] != 500 {
		t.Fatalf("A settled at %v on channel %d, want 500 on %d", n.tab.rate[a], n.tab.bott[a], fwd[1])
	}
	corruptions := []struct {
		name    string
		corrupt func()
		want    string
	}{
		{"raised rate", func() { n.tab.rate[a] = 600 }, "over capacity"},
		{"lowered rate", func() { n.tab.rate[a] = 400 }, "not saturated"},
		{"unsaturated bottleneck", func() { n.tab.bott[a] = fwd[0] }, "not saturated"},
	}
	for _, c := range corruptions {
		rate, bott := n.tab.rate[a], n.tab.bott[a]
		c.corrupt()
		err := certifyMaxMin(n)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: certificate returned %v, want an error containing %q", c.name, err, c.want)
		}
		n.tab.rate[a], n.tab.bott[a] = rate, bott
	}
	if err := certifyMaxMin(n); err != nil {
		t.Fatalf("restored allocation rejected: %v", err)
	}
}

// TestCertificateAtQDRRates certifies allocations at QDR link rates,
// where one ulp of a rate is far above any absolute tolerance near 1e-9:
// 300 flows between random terminal pairs over DFSSSP base-LID paths on
// churnHX, settled at t=0, for five seeds.
func TestCertificateAtQDRRates(t *testing.T) {
	hx := churnHX()
	route := dfssspRouter(t, hx)
	terms := hx.Terminals()
	for seed := uint64(1); seed <= 5; seed++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng, hx.Graph)
		r := sim.NewRand(seed)
		for k := 0; k < 300; k++ {
			if src, dst := terms[r.Intn(len(terms))], terms[r.Intn(len(terms))]; src != dst {
				net.Start(route(src, dst), 1e12, func(sim.Time) {})
			}
		}
		eng.RunUntil(0)
		if err := certifyMaxMin(net); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestEpsilonTieTakesSmallestChannelID pins the bottleneck rule on one
// flow over channels X < Y, where Y is a node channel whose capacity, and
// so whose fair share, is exactly smaller than X's. Within shareEps the
// shares tie: X, the smaller ID, is the bottleneck and the flow freezes
// at X's own share. Beyond shareEps, Y's smaller share wins. The solver
// and maxMinOracle must agree exactly either way.
func TestEpsilonTieTakesSmallestChannelID(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64 // Y's capacity relative to X's
		tied  bool
	}{
		{"within shareEps", 1 - 1e-10, true},
		{"beyond shareEps", 1 - 1e-8, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, fwd, _ := lineGraph(1000)
			e := sim.NewEngine()
			n := NewNetwork(e, g)
			x := fwd[1]
			y := n.AddNodeChannels(1, n.caps[x]*c.scale)
			if !(x < y && n.caps[y] < n.caps[x]) || sharesEqual(n.caps[y], n.caps[x]) != c.tied {
				t.Fatalf("setup: X=%d cap %v, Y=%d cap %v, tied %v",
					x, n.caps[x], y, n.caps[y], sharesEqual(n.caps[y], n.caps[x]))
			}
			want := y
			if c.tied {
				want = x
			}
			path := []topo.ChannelID{y, x}
			id := n.Start(path, 1e9, func(sim.Time) {})
			e.RunUntil(0)
			idx, _ := n.lookup(id)
			if rate, bott := n.tab.rate[idx], n.tab.bott[idx]; bott != want || rate != n.caps[want] {
				t.Errorf("flow froze at %v on channel %d, want %v on %d", rate, bott, n.caps[want], want)
			}
			rates, bott := maxMinOracle(n.caps, [][]topo.ChannelID{path})
			if rates[0] != n.tab.rate[idx] || bott[0] != n.tab.bott[idx] {
				t.Errorf("solver froze at %v on %d, oracle at %v on %d",
					n.tab.rate[idx], n.tab.bott[idx], rates[0], bott[0])
			}
		})
	}
}

// requireOracleExact holds every live flow of a settled network to
// maxMinOracle bit for bit, rate and bottleneck, and the allocation to
// certifyMaxMin.
func requireOracleExact(t *testing.T, n *Network) {
	t.Helper()
	tab := &n.tab
	var live []int32
	for _, idx := range tab.liveList {
		if tab.zeroEv[idx] == 0 {
			live = append(live, idx)
		}
	}
	paths := make([][]topo.ChannelID, len(live))
	for i, idx := range live {
		paths[i] = tab.path(idx)
	}
	rates, bott := maxMinOracle(n.caps, paths)
	for i, idx := range live {
		if tab.rate[idx] != rates[i] || tab.bott[idx] != bott[i] {
			t.Errorf("flow %v froze at %v on %d, oracle at %v on %d",
				tab.path(idx), tab.rate[idx], tab.bott[idx], rates[i], bott[i])
		}
	}
	if err := certifyMaxMin(n); err != nil {
		t.Error(err)
	}
}

// TestLoneChannelAtSharedShare pins the boundary between lone and shared
// channels in the bottleneck search. Flows A and B share channel S, whose
// fair share is 500; A alone crosses lone channel L, whose share is its
// capacity. L is the network's smallest capacity and its ID lies below or
// above S's. Within shareEps of 500, on either side, L ties S and the
// smaller ID is A's bottleneck: the round's smallest shared share lies
// within loneMargin of capMin, so it must scan L. Just past the margin,
// the round may skip L, and does; just inside it, the round scans L and
// still finds S. Each allocation must equal maxMinOracle's bit for bit.
// With extra, a third flow in a component of its own crosses a channel of
// capacity 1, the network's smallest: every round then scans, and the
// allocation stays the same.
func TestLoneChannelAtSharedShare(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64 // L's capacity over S's fair share
		tied  bool
		// skips is whether the pair's round skips the lone scan.
		skips bool
	}{
		{"within shareEps above", 1 + 1e-10, true, false},
		{"within shareEps below", 1 - 1e-10, true, false},
		{"just past the margin", 1 + 1.5*loneMargin, false, true},
		{"just inside the margin", 1 + 0.5*loneMargin, false, false},
	} {
		for _, loneLow := range []bool{true, false} {
			for _, extra := range []bool{false, true} {
				name := fmt.Sprintf("%s/lone ID low %v/extra %v", c.name, loneLow, extra)
				t.Run(name, func(t *testing.T) {
					capL := 500 * c.scale
					var (
						n    *Network
						e    = sim.NewEngine()
						l, s topo.ChannelID
					)
					if loneLow {
						// L is a link channel, S a node channel of twice
						// the pair's share.
						g, fwd, _ := lineGraph(capL)
						n = NewNetwork(e, g)
						l, s = fwd[0], n.AddNodeChannels(1, 1000)
					} else {
						g, fwd, _ := lineGraph(1000)
						n = NewNetwork(e, g)
						l, s = n.AddNodeChannels(1, capL), fwd[1]
					}
					if extra {
						z := n.AddNodeChannels(1, 1)
						n.Start([]topo.ChannelID{z}, 1e9, func(sim.Time) {})
					}
					idA := n.Start([]topo.ChannelID{l, s}, 1e9, func(sim.Time) {})
					n.Start([]topo.ChannelID{s}, 1e9, func(sim.Time) {})
					e.RunUntil(0)
					if !n.lone(l) || n.lone(s) || (l < s) != loneLow || sharesEqual(capL, 500) != c.tied {
						t.Fatalf("setup: L=%d cap %v lone %v, S=%d lone %v, tied %v",
							l, capL, n.lone(l), s, n.lone(s), sharesEqual(capL, 500))
					}
					want := s
					if c.tied && loneLow {
						want = l
					}
					a, _ := n.lookup(idA)
					if n.tab.bott[a] != want {
						t.Errorf("A froze at %v on %d, want channel %d", n.tab.rate[a], n.tab.bott[a], want)
					}
					requireOracleExact(t, n)
					switch {
					case extra && n.LoneRounds != n.Rounds:
						t.Errorf("%d of %d rounds scanned lone channels, want all", n.LoneRounds, n.Rounds)
					case !extra && c.skips != (n.LoneRounds == 0):
						t.Errorf("%d of %d rounds scanned lone channels, want skipping %v", n.LoneRounds, n.Rounds, c.skips)
					}
				})
			}
		}
	}
}

// TestAddNodeChannelsLowersCapMin starts flows A (fwd[0],fwd[1]) and B
// (fwd[1]) on lineGraph(1000), whose round skips the lone scan, then adds
// a node channel y of 200 B/s under live traffic and starts C (y,fwd[1]).
// y is now the network's smallest capacity and C's bottleneck: fwd[1]'s
// share of 333.3 lies below the old capMin, so a capMin that y did not
// lower would skip y and freeze C at 333.3. C must freeze at 200 on y,
// and A and B at 400 on fwd[1], as the oracle does.
func TestAddNodeChannelsLowersCapMin(t *testing.T) {
	g, fwd, _ := lineGraph(1000)
	e := sim.NewEngine()
	n := NewNetwork(e, g)
	n.Start([]topo.ChannelID{fwd[0], fwd[1]}, 1e9, func(sim.Time) {})
	n.Start([]topo.ChannelID{fwd[1]}, 1e9, func(sim.Time) {})
	e.RunUntil(0)
	requireOracleExact(t, n)
	if n.LoneRounds != 0 {
		t.Fatalf("before y: %d of %d rounds scanned lone channels, want none", n.LoneRounds, n.Rounds)
	}
	e.RunUntil(1)
	y := n.AddNodeChannels(1, 200)
	if n.capMin != 200 {
		t.Fatalf("capMin %v after adding a 200 B/s channel, want 200", n.capMin)
	}
	idC := n.Start([]topo.ChannelID{y, fwd[1]}, 1e9, func(sim.Time) {})
	e.RunUntil(1)
	requireOracleExact(t, n)
	c, _ := n.lookup(idC)
	if n.tab.rate[c] != 200 || n.tab.bott[c] != y {
		t.Errorf("C froze at %v on %d, want 200 on %d", n.tab.rate[c], n.tab.bott[c], y)
	}
}

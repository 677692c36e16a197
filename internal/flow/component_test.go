package flow

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// This file tests the component index of the solver: dirty regions must
// segment into their connected components, and a stale cancel racing a
// pending component re-solve must not disturb the recycled slot.

// componentTestGraph builds a small HyperX whose raw channel IDs the
// component tests address directly.
func componentTestGraph(t *testing.T) *topo.Graph {
	t.Helper()
	hx, err := topo.BuildHyperX(topo.HyperXConfig{
		S: []int{2, 2}, T: 2, Bandwidth: 1e6, Latency: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hx.Graph
}

// disjointChannels returns k channels no two of which share a link, so
// single-channel flows over them form k separate contention components.
func disjointChannels(g *topo.Graph, k int) []topo.ChannelID {
	cs := make([]topo.ChannelID, 0, k)
	for l := 0; l < len(g.Links) && len(cs) < k; l++ {
		cs = append(cs, topo.ChannelID(2*l)) // forward channel of link l
	}
	return cs
}

// TestComponentDiscovery checks the component index directly: disjoint
// flows come back as separate components sorted by root, flows chained by
// a shared channel merge into one, and the spans partition the region.
func TestComponentDiscovery(t *testing.T) {
	g := componentTestGraph(t)
	eng := sim.NewEngine()
	net := NewNetwork(eng, g)
	cs := disjointChannels(g, 4)
	if len(cs) < 4 {
		t.Fatalf("test graph too small: %d disjoint channels", len(cs))
	}
	noop := func(sim.Time) {}
	// Two isolated single-channel flows, plus a chained pair sharing cs[2]:
	// {cs[0]}, {cs[1]}, {cs[2]}+{cs[2],cs[3]} -> 3 components.
	net.Start([]topo.ChannelID{cs[0]}, 1e6, noop)
	net.Start([]topo.ChannelID{cs[1]}, 1e6, noop)
	net.Start([]topo.ChannelID{cs[2]}, 1e6, noop)
	net.Start([]topo.ChannelID{cs[2], cs[3]}, 1e6, noop)
	eng.RunUntil(0) // settle
	comps := net.comps
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %+v", len(comps), comps)
	}
	wantRoots := []topo.ChannelID{cs[0], cs[1], cs[2]}
	var flowTotal int32
	for i, c := range comps {
		if c.root != wantRoots[i] {
			t.Errorf("component %d root %d, want %d", i, c.root, wantRoots[i])
		}
		if i > 0 && comps[i-1].root >= c.root {
			t.Errorf("components not sorted by root: %d then %d", comps[i-1].root, c.root)
		}
		flowTotal += c.flowLen
	}
	if flowTotal != int32(len(net.regionFlows)) {
		t.Errorf("component flow spans cover %d flows, region has %d",
			flowTotal, len(net.regionFlows))
	}
	// A component stores its shared channels only. The chained pair's
	// holds cs[2], which both flows cross, and not cs[3], which one flow
	// crosses; the isolated flows' components hold none. Roots still count
	// lone channels: the isolated components' roots are theirs.
	if comps[2].flowLen != 2 || comps[2].chanLen != 1 || net.regionChans[comps[2].chanOff] != cs[2] {
		t.Errorf("chained component spans flows=%d chans=%v, want 2 flows over [%d]",
			comps[2].flowLen, net.regionChans[comps[2].chanOff:comps[2].chanOff+comps[2].chanLen], cs[2])
	}
	for i, c := range comps[:2] {
		if c.flowLen != 1 || c.chanLen != 0 {
			t.Errorf("isolated component %d spans flows=%d chans=%d, want 1/0", i, c.flowLen, c.chanLen)
		}
	}
	// Dirty only one component: the next settle must re-discover just it.
	net.Start([]topo.ChannelID{cs[0]}, 1e6, noop)
	eng.RunUntil(0)
	if len(net.comps) != 1 || net.comps[0].root != cs[0] {
		t.Fatalf("dirtying one component rediscovered %+v", net.comps)
	}
}

// TestStaleCancelRacingComponentResolve drives handle-reuse churn over
// four components: slots recycle via the LIFO free list while stale
// handles are cancelled at the same instant as the pending component
// re-solve. Stale cancels must be counted, never tear down a slot's next
// occupant, and the drain must stay exact.
func TestStaleCancelRacingComponentResolve(t *testing.T) {
	g := componentTestGraph(t)
	eng := sim.NewEngine()
	net := NewNetwork(eng, g)
	cs := disjointChannels(g, 4)
	const perChan = 8
	var completions int
	onDone := func(sim.Time) { completions++ }
	ids := make([]FlowID, 0, len(cs)*perChan)
	for _, c := range cs {
		for i := 0; i < perChan; i++ {
			ids = append(ids, net.Start([]topo.ChannelID{c}, 1e9, onDone))
		}
	}
	eng.RunUntil(0)
	const churns = 64
	var wantStale uint64
	for i := 0; i < churns; i++ {
		k := i % len(ids)
		stale := ids[k]
		net.Cancel(stale) // frees the slot, marks its component dirty
		// Recycle the freed slot before the settle event fires...
		ids[k] = net.Start([]topo.ChannelID{cs[k%len(cs)]}, 1e9, onDone)
		if Index(stale) != Index(ids[k]) {
			t.Fatalf("churn %d: expected LIFO slot reuse, got slot %d then %d",
				i, Index(stale), Index(ids[k]))
		}
		// ...and cancel the stale handle at the same instant, racing the
		// pending component re-solve. It must hit StaleCancels, not the
		// slot's new occupant.
		net.Cancel(stale)
		wantStale++
		eng.RunUntil(eng.Now()) // run the settle for this churn instant
	}
	if net.StaleCancels != wantStale {
		t.Fatalf("StaleCancels = %d, want %d", net.StaleCancels, wantStale)
	}
	eng.Run()
	if net.Active() != 0 {
		t.Fatalf("%d flows still active after drain", net.Active())
	}
	if want := len(ids); completions != want {
		t.Fatalf("%d completions, want %d", completions, want)
	}
}

// TestSolverWorkCounts pins the solver's host-independent work counters
// on a scripted run over lineGraph(1000) plus one node channel y of 450
// B/s, the network's smallest capacity, so a round skips the lone scan
// only when its smallest shared share lies below 450·(1−loneMargin).
//
//   - t=0: A (fwd[0],fwd[1]), B (fwd[1],fwd[2]) and E (fwd[1]) form one
//     component, whose one round freezes all three on fwd[1] at 333.3
//     B/s without the lone scan. C (y,rev[1]) and D (rev[1]) form
//     another: both rounds scan, C freezes on y at 450, D on rev[1] at
//     550. Two components, three rounds, two lone.
//   - C completes at 0.22 s: D, now alone, takes the whole of rev[1] in a
//     round with no shared channel at all, which scans.
//   - D completes at 0.9 s: its drained channel seeds no component.
//   - A completes at 1.5 s: B and E share fwd[1] at 500 B/s, above the
//     margin, so that round scans. B completes at 2.5 s and E runs alone,
//     in another scanning round; E's completion at 3.5 s leaves nothing
//     to solve. Six settles, five components, six rounds, five scanning.
func TestSolverWorkCounts(t *testing.T) {
	g, fwd, rev := lineGraph(1000)
	eng := sim.NewEngine()
	net := NewNetwork(eng, g)
	y := net.AddNodeChannels(1, 450)
	noop := func(sim.Time) {}
	net.Start([]topo.ChannelID{fwd[0], fwd[1]}, 500, noop)
	net.Start([]topo.ChannelID{fwd[1], fwd[2]}, 1000, noop)
	net.Start([]topo.ChannelID{fwd[1]}, 2000, noop)
	net.Start([]topo.ChannelID{y, rev[1]}, 100, noop)
	net.Start([]topo.ChannelID{rev[1]}, 800, noop)
	eng.RunUntil(0)
	got := [4]uint64{net.Recomputes, net.Components, net.Rounds, net.LoneRounds}
	if want := [4]uint64{1, 2, 3, 2}; got != want {
		t.Errorf("after the first settle: recomputes, components, rounds, lone rounds = %v, want %v", got, want)
	}
	eng.Run()
	got = [4]uint64{net.Recomputes, net.Components, net.Rounds, net.LoneRounds}
	if want := [4]uint64{6, 5, 6, 5}; got != want {
		t.Errorf("after the drain: recomputes, components, rounds, lone rounds = %v, want %v", got, want)
	}
}

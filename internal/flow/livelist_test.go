package flow

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// TestLiveListStaysDenseUnderChurn is the O(live) regression test for the
// whole-table walk (advanceAll): it iterates tab.liveList, so its cost is
// the number of LIVE flows, not the table's high-water capacity. Before the live list, `range t.live` walked
// capacity — on this churned table (100k slots allocated, 1k still live)
// every counter-attached Start/Cancel paid a 100k-slot scan for 1k flows.
func TestLiveListStaysDenseUnderChurn(t *testing.T) {
	hx := topo.NewHyperX(topo.HyperXConfig{S: []int{2, 2}, T: 1, Bandwidth: 1e9, Latency: 0})
	eng := sim.NewEngine()
	net := NewNetwork(eng, hx.Graph)
	net.SetCounters(telemetry.NewChannelCounters(hx.Graph))
	path := []topo.ChannelID{hx.Graph.Links[0].Channel(hx.Graph.Links[0].A)}

	const total = 100_000
	const keep = 1_000
	ids := make([]FlowID, total)
	for i := range ids {
		ids[i] = net.Start(path, 1e12, func(sim.Time) {})
	}
	eng.Step() // settle: all 100k rated
	for i, id := range ids {
		if i%(total/keep) != 0 {
			net.Cancel(id)
		}
	}
	eng.Step() // settle the survivors at t=0; nothing has completed yet

	tab := &net.tab
	if len(tab.gen) < total {
		t.Fatalf("table capacity %d, want >= %d (churn did not grow the arena)", len(tab.gen), total)
	}
	if tab.liveCount != keep {
		t.Fatalf("liveCount = %d, want %d", tab.liveCount, keep)
	}
	// The walk-length claim: every whole-table iteration ranges over
	// liveList, whose length is the live count — not table capacity.
	if len(tab.liveList) != keep {
		t.Fatalf("len(liveList) = %d, want %d (walks must be O(live), capacity is %d)",
			len(tab.liveList), keep, len(tab.gen))
	}
	// Consistency: liveList/livePos are mutually inverse, entries are live,
	// and every live slot appears exactly once.
	liveFlags := 0
	for idx := range tab.live {
		if tab.live[idx] {
			liveFlags++
			p := tab.livePos[idx]
			if p < 0 || int(p) >= len(tab.liveList) || tab.liveList[p] != int32(idx) {
				t.Fatalf("live slot %d has broken livePos %d", idx, p)
			}
		} else if tab.livePos[idx] != -1 {
			t.Fatalf("free slot %d has livePos %d, want -1", idx, tab.livePos[idx])
		}
	}
	if liveFlags != keep {
		t.Fatalf("live flags count %d, want %d", liveFlags, keep)
	}
	for p, idx := range tab.liveList {
		if !tab.live[idx] {
			t.Fatalf("liveList[%d] = %d is not live", p, idx)
		}
	}
}

// TestAdvanceAllWalksOnlyLive pins the behavioral side: after churn,
// advanceAll must move the integration frontier (tab.last) of live flows
// only — freed slots keep their stale frontier, proving they were not
// visited.
func TestAdvanceAllWalksOnlyLive(t *testing.T) {
	hx := topo.NewHyperX(topo.HyperXConfig{S: []int{2, 2}, T: 1, Bandwidth: 1e9, Latency: 0})
	eng := sim.NewEngine()
	net := NewNetwork(eng, hx.Graph)
	net.SetCounters(telemetry.NewChannelCounters(hx.Graph))
	path := []topo.ChannelID{hx.Graph.Links[0].Channel(hx.Graph.Links[0].A)}

	var ids []FlowID
	for i := 0; i < 64; i++ {
		ids = append(ids, net.Start(path, 1e12, func(sim.Time) {}))
	}
	eng.Step() // settle at t=0
	for i, id := range ids {
		if i%2 == 0 {
			net.Cancel(id)
		}
	}
	eng.RunUntil(1.0) // settle at t=0, then advance the clock only
	net.FlushCounters()
	tab := &net.tab
	for i, id := range ids {
		idx := Index(id)
		if i%2 == 0 {
			if tab.last[idx] != 0 {
				t.Fatalf("freed slot %d was advanced to %v (walk touched a dead slot)", idx, tab.last[idx])
			}
		} else if tab.last[idx] != 1.0 {
			t.Fatalf("live slot %d stuck at frontier %v, want 1.0", idx, tab.last[idx])
		}
	}
}

package fabric

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

func resilientFabric(t *testing.T) (*topo.HyperX, *Fabric, *sim.Engine) {
	t.Helper()
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: []int{4, 4}, T: 1,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
	tb, err := route.SSSP(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	f := New(eng, tb, DefaultParams(), 1)
	return hx, f, eng
}

// A link dying under an in-flight flow must tear the flow down, and the
// message must be redelivered once the SM-style table swap routes around
// the failure.
func TestFailChannelsRetriesAfterSwap(t *testing.T) {
	hx, f, eng := resilientFabric(t)
	f.EnableResilience(Resilience{RetryBackoff: 10 * sim.Microsecond, MaxRetries: 8})
	src := hx.Terminals()[0]
	dst := hx.Terminals()[15]

	path, err := f.Tables.Path(src, f.Tables.BaseLID[f.Tables.TermIndex(dst)])
	if err != nil {
		t.Fatal(err)
	}
	victim := hx.Graph.Link(path[1]) // first switch-to-switch hop

	delivered := sim.Time(-1)
	f.Send(src, dst, 1<<20, func(at sim.Time) { delivered = at })

	// Mid-transfer (a 1 MiB message streams for ~300 us), the cable dies.
	eng.Schedule(50*sim.Microsecond, func(*sim.Engine) {
		victim.Down = true
		if n := f.FailChannels(func(c topo.ChannelID) bool { return hx.Graph.Link(c) == victim }); n != 1 {
			t.Errorf("tore down %d flows, want 1", n)
		}
	})
	// The "SM" swaps repaired tables a little later.
	eng.Schedule(200*sim.Microsecond, func(*sim.Engine) {
		nt, err := route.SSSP(hx.Graph, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SwapTables(nt); err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()

	if delivered < 0 {
		t.Fatal("message never delivered after repair")
	}
	if f.TornDown != 1 {
		t.Errorf("TornDown = %d, want 1", f.TornDown)
	}
	if f.Retries == 0 {
		t.Error("no retries recorded")
	}
	if f.GiveUps != 0 {
		t.Errorf("GiveUps = %d, want 0", f.GiveUps)
	}
	if f.Delivered != 1 || f.DeliveredBytes != 1<<20 {
		t.Errorf("delivered %d msgs / %.0f bytes, want 1 / %d", f.Delivered, f.DeliveredBytes, 1<<20)
	}
	// The redelivered path must avoid the dead link.
	p2, err := f.Tables.Path(src, f.Tables.BaseLID[f.Tables.TermIndex(dst)])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p2 {
		if hx.Graph.Link(c) == victim {
			t.Error("post-swap path still crosses the dead link")
		}
	}
}

// Without a table repair the retry budget must run out and the message
// must be given up exactly once.
func TestResilienceGivesUpAfterBudget(t *testing.T) {
	hx, f, eng := resilientFabric(t)
	f.EnableResilience(Resilience{
		RetryBackoff: 5 * sim.Microsecond,
		MaxRetries:   3,
	})
	src := hx.Terminals()[0]
	dst := hx.Terminals()[15]
	path, err := f.Tables.Path(src, f.Tables.BaseLID[f.Tables.TermIndex(dst)])
	if err != nil {
		t.Fatal(err)
	}
	victim := hx.Graph.Link(path[1])
	done := false
	f.Send(src, dst, 1<<20, func(sim.Time) { done = true })
	eng.Schedule(50*sim.Microsecond, func(*sim.Engine) {
		victim.Down = true
		f.FailChannels(func(c topo.ChannelID) bool { return hx.Graph.Link(c) == victim })
	})
	eng.Run()
	if done {
		t.Error("message delivered over a table that routes through a dead link")
	}
	if f.GiveUps != 1 {
		t.Errorf("give-ups = %d, want 1", f.GiveUps)
	}
	if f.Retries != 3 {
		t.Errorf("retries = %d, want 3 (the full budget)", f.Retries)
	}
}

// SwapTables must reject tables that change the addressing contract.
func TestSwapTablesGuardsLIDLayout(t *testing.T) {
	hx, f, _ := resilientFabric(t)
	other := topo.NewHyperX(topo.HyperXConfig{S: []int{4, 4}, T: 1, Bandwidth: 1e9, Latency: 1e-7})
	tbOther, err := route.SSSP(other.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SwapTables(tbOther); err == nil {
		t.Error("accepted tables for a different graph")
	}
	tbLMC, err := route.SSSP(hx.Graph, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SwapTables(tbLMC); err == nil {
		t.Error("accepted tables with a different LMC")
	}
	tbOK, err := route.SSSP(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SwapTables(tbOK); err != nil {
		t.Errorf("rejected compatible tables: %v", err)
	}
}

// Fail-fast behaviour is preserved when resilience is off: FailChannels
// only drops caches and an unroutable send panics.
func TestFailFastWithoutResilience(t *testing.T) {
	hx, f, eng := resilientFabric(t)
	src := hx.Terminals()[0]
	dst := hx.Terminals()[15]
	if n := f.FailChannels(func(topo.ChannelID) bool { return true }); n != 0 {
		t.Errorf("tore down %d flows without resilience", n)
	}
	// Cut every link out of the source's switch so no route exists.
	sw := hx.Graph.SwitchOf(src)
	for _, l := range hx.Graph.Nodes[sw].Ports {
		if l != nil && hx.Graph.Nodes[l.Other(sw)].Kind == topo.Switch {
			l.Down = true
		}
	}
	f.InvalidatePaths()
	defer func() {
		if recover() == nil {
			t.Error("unroutable send did not panic without resilience")
		}
	}()
	f.Send(src, dst, 1024, func(sim.Time) {})
	eng.Run()
}

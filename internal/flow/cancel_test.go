package flow

import (
	"math"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// The Cancel and handle tests here and in handle_test.go run their body
// as an "incremental" subtest, named for the incremental max-min solver
// that allocates the rates.

// countersNet builds a counter-attached network over the 3-channel line
// graph at 1000 B/s.
func countersNet() (*sim.Engine, *Network, *telemetry.ChannelCounters, []topo.ChannelID) {
	g, fwd, _ := lineGraph(1000)
	e := sim.NewEngine()
	n := NewNetwork(e, g)
	cc := telemetry.NewChannelCounters(g)
	n.SetCounters(cc)
	return e, n, cc, fwd
}

func totalWait(cc *telemetry.ChannelCounters) sim.Duration {
	var w sim.Duration
	for _, d := range cc.XmitWait {
		w += d
	}
	return w + cc.HCAWait
}

// A cancelled flow credits exactly the bytes it moved before teardown —
// no more, no less — to every channel on its path.
func TestCancelCreditsPartialBytes(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		e, n, cc, fwd := countersNet()
		var doneA sim.Time = -1
		n.Start(fwd, 1000, func(at sim.Time) { doneA = at })
		idB := n.Start(fwd, 1e9, func(sim.Time) { t.Error("cancelled flow fired") })
		e.Schedule(0.25, func(*sim.Engine) { n.Cancel(idB) })
		e.Run()
		// Phase [0, 0.25]: both at 500 B/s, so A and B each move 125 B. B's
		// cancel credits 125 B x 3 channels = 375. A then runs alone at
		// 1000 B/s, finishing its remaining 875 B at t = 1.125 and crediting
		// 1000 x 3 = 3000. Total XmitData: 3375.
		if math.Abs(float64(doneA)-1.125) > 1e-9 {
			t.Errorf("A done at %v, want 1.125", doneA)
		}
		if got := cc.TotalXmitData(); math.Abs(got-3375) > 1e-6 {
			t.Errorf("TotalXmitData = %v, want 3375", got)
		}
		for _, c := range fwd {
			if math.Abs(cc.XmitData[c]-1125) > 1e-6 {
				t.Errorf("channel %d XmitData = %v, want 1125", c, cc.XmitData[c])
			}
		}
		// Both flows stalled at half rate for 0.25 s: 2 x 0.125 s of wait,
		// charged to the smallest-ID channel of the (epsilon-tied) path.
		if w := totalWait(cc); math.Abs(float64(w)-0.25) > 1e-9 {
			t.Errorf("total XmitWait = %v, want 0.25", w)
		}
		if w := cc.XmitWait[fwd[0]]; math.Abs(float64(w)-0.25) > 1e-9 {
			t.Errorf("XmitWait[fwd[0]] = %v, want all 0.25 on the first channel", w)
		}
	})
}

// Cancel and Start at the same instant: the freed share must be visible to
// the flow started in the same event, and conservation must hold across
// the splice.
func TestCancelStartSameInstant(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		e, n, cc, fwd := countersNet()
		var doneA, doneC sim.Time = -1, -1
		n.Start(fwd, 1000, func(at sim.Time) { doneA = at })
		idB := n.Start(fwd, 1e9, func(sim.Time) { t.Error("cancelled flow fired") })
		e.Schedule(0.25, func(*sim.Engine) {
			n.Cancel(idB)
			n.Start(fwd, 875, func(at sim.Time) { doneC = at })
		})
		e.Run()
		// [0, 0.25]: A, B at 500 B/s (125 B each). At 0.25, B leaves and C
		// arrives: A (875 B left) and C (875 B) at 500 B/s both finish at
		// 0.25 + 1.75 = 2.0. XmitData: A 3000 + B 375 + C 2625 = 6000.
		if math.Abs(float64(doneA)-2.0) > 1e-9 || math.Abs(float64(doneC)-2.0) > 1e-9 {
			t.Errorf("done A=%v C=%v, want 2.0 both", doneA, doneC)
		}
		if got := cc.TotalXmitData(); math.Abs(got-6000) > 1e-6 {
			t.Errorf("TotalXmitData = %v, want 6000", got)
		}
	})
}

// Cancel landing at the exact instant a flow drains, sequenced before the
// completion event: the flow is fully integrated (its bytes stay
// credited) but its callback must not fire — Cancel wins the race.
func TestCancelSameInstantAsCompletion(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		e, n, cc, fwd := countersNet()
		var doneA sim.Time = -1
		n.Start(fwd, 500, func(at sim.Time) { doneA = at })
		idB := n.Start(fwd, 500, func(sim.Time) { t.Error("cancelled flow fired") })
		// Both drain at t = 1.0 (500 B at 500 B/s). This event is scheduled
		// before the solver's completion event exists, so at t = 1.0 it
		// runs first and cancels B between "drained" and "completed".
		e.Schedule(1.0, func(*sim.Engine) { n.Cancel(idB) })
		e.Run()
		if math.Abs(float64(doneA)-1.0) > 1e-9 {
			t.Errorf("A done at %v, want 1.0", doneA)
		}
		// B moved all 500 B before the cancel, so conservation still sees
		// (500 + 500) x 3 = 3000 (B's last-ulp residue is below 1e-6).
		if got := cc.TotalXmitData(); math.Abs(got-3000) > 1e-6 {
			t.Errorf("TotalXmitData = %v, want 3000", got)
		}
		if n.Active() != 0 {
			t.Errorf("Active() = %d, want 0", n.Active())
		}
	})
}

// Cancelling a zero-size flow before its same-instant completion event
// fires must suppress the callback — the Cancel contract — instead of the
// old behaviour where zero-size Starts returned the sentinel ID 0 and
// their callbacks fired unconditionally.
func TestCancelZeroSizeFlow(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		g, _, _ := lineGraph(1000)
		e := sim.NewEngine()
		n := NewNetwork(e, g)
		id := n.Start(nil, 0, func(sim.Time) { t.Error("cancelled zero-size flow fired") })
		if id == 0 {
			t.Fatal("zero-size Start returned the sentinel ID 0")
		}
		n.Cancel(id)
		n.Cancel(id) // double-cancel is a no-op
		e.Run()
		if n.Active() != 0 {
			t.Errorf("Active() = %d, want 0", n.Active())
		}
	})
}

// Distinct zero-size flows get distinct live IDs, and cancelling one must
// not disturb the others' same-instant completions.
func TestZeroSizeFlowsGetDistinctIDs(t *testing.T) {
	g, _, _ := lineGraph(1000)
	e := sim.NewEngine()
	n := NewNetwork(e, g)
	fired := make([]bool, 3)
	var ids []FlowID
	for i := 0; i < 3; i++ {
		i := i
		ids = append(ids, n.Start(nil, 0, func(sim.Time) { fired[i] = true }))
	}
	if ids[0] == ids[1] || ids[1] == ids[2] || ids[0] == ids[2] {
		t.Fatalf("zero-size flows share IDs: %v", ids)
	}
	n.Cancel(ids[1])
	e.Run()
	if !fired[0] || fired[1] || !fired[2] {
		t.Errorf("fired = %v, want [true false true]", fired)
	}
}

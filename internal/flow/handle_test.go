package flow

import (
	"math"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
)

// This file tests the handle contract of the arena/SoA flow table
// (table.go): slot reuse bumps the generation, stale handles are detected
// rather than corrupting the recycled slot, and zero-size flows get the
// same guarantees as positive-size ones.

// TestHandleReuseBumpsGeneration: cancelling a flow and starting another
// recycles the slot (LIFO free list) under a strictly newer generation,
// so the two handles never compare equal.
func TestHandleReuseBumpsGeneration(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		g, fwd, _ := lineGraph(1000)
		e := sim.NewEngine()
		n := NewNetwork(e, g)
		idA := n.Start(fwd, 100, func(sim.Time) {})
		n.Cancel(idA)
		idB := n.Start(fwd, 100, func(sim.Time) {})
		if Index(idA) != Index(idB) {
			t.Fatalf("LIFO free list did not recycle the slot: idx %d then %d",
				Index(idA), Index(idB))
		}
		if idA == idB {
			t.Fatal("recycled slot issued the same handle twice")
		}
		if handleGen(idB) != handleGen(idA)+1 {
			t.Errorf("generation %d -> %d, want +1", handleGen(idA), handleGen(idB))
		}
		if idB <= 0 {
			t.Errorf("handle %d not positive", idB)
		}
		e.Run()
	})
}

// TestStaleCancelDetected: a Cancel carrying a dead flow's handle must
// not tear down the slot's current occupant, and must be counted in
// StaleCancels; handles that were never issued count as unknown, not
// stale.
func TestStaleCancelDetected(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		g, fwd, _ := lineGraph(1000)
		e := sim.NewEngine()
		n := NewNetwork(e, g)
		idA := n.Start(fwd, 100, func(sim.Time) { t.Error("cancelled flow fired") })
		n.Cancel(idA)
		var doneB sim.Time = -1
		idB := n.Start(fwd, 100, func(at sim.Time) { doneB = at })
		if Index(idA) != Index(idB) {
			t.Fatalf("expected slot reuse, got idx %d then %d", Index(idA), Index(idB))
		}
		n.Cancel(idA) // stale: must not touch B
		if n.StaleCancels != 1 {
			t.Errorf("StaleCancels = %d after stale cancel, want 1", n.StaleCancels)
		}
		n.Cancel(FlowID(0))  // never-issued sentinel: unknown, not stale
		n.Cancel(FlowID(-1)) // negative: unknown, not stale
		if n.StaleCancels != 1 {
			t.Errorf("StaleCancels = %d after unknown-ID cancels, want 1", n.StaleCancels)
		}
		e.Run()
		if math.Abs(float64(doneB)-0.1) > 1e-9 {
			t.Errorf("B done at %v, want 0.1 — stale cancel corrupted the recycled slot", doneB)
		}
		// B completed; its handle is now stale too.
		n.Cancel(idB)
		if n.StaleCancels != 2 {
			t.Errorf("StaleCancels = %d after post-completion cancel, want 2", n.StaleCancels)
		}
	})
}

// TestStaleDoneEntriesCannotFire: the completion queue holds each flow's
// prediction under its slot, and a flow may die and have its slot recycled
// before that prediction comes due. Removing the flow must take its
// prediction with it: the recycled occupant completes on its own
// schedule, exactly once.
func TestStaleDoneEntriesCannotFire(t *testing.T) {
	g, fwd, _ := lineGraph(1000)
	e := sim.NewEngine()
	n := NewNetwork(e, g)
	// A would complete at t=0.1; cancel it at t=0.05 and recycle its slot
	// into B, which completes at t=0.05+1.0. A's t=0.1 prediction named
	// the same slot.
	idA := n.Start(fwd, 100, func(sim.Time) { t.Error("cancelled flow fired") })
	var doneB sim.Time = -1
	doneBCount := 0
	e.Schedule(0.05, func(*sim.Engine) {
		n.Cancel(idA)
		idB := n.Start(fwd, 1000, func(at sim.Time) { doneB = at; doneBCount++ })
		if Index(idB) != Index(idA) {
			t.Fatalf("expected slot reuse, got idx %d then %d", Index(idA), Index(idB))
		}
	})
	e.Run()
	if doneBCount != 1 {
		t.Fatalf("B completed %d times, want exactly 1", doneBCount)
	}
	if math.Abs(float64(doneB)-1.05) > 1e-9 {
		t.Errorf("B done at %v, want 1.05 — a stale prediction fired the recycled slot", doneB)
	}
}

// TestZeroSizeHandleSafety: zero-size flows live in the same table, so
// their handles get the same reuse/staleness guarantees — a cancelled
// zero-size flow's recycled slot must not be reachable through the old
// handle, whichever flavor of flow recycles it.
func TestZeroSizeHandleSafety(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		g, fwd, _ := lineGraph(1000)
		e := sim.NewEngine()
		n := NewNetwork(e, g)
		idZ := n.Start(nil, 0, func(sim.Time) { t.Error("cancelled zero-size flow fired") })
		n.Cancel(idZ)
		// The slot recycles into a positive-size flow.
		var done sim.Time = -1
		idB := n.Start(fwd, 100, func(at sim.Time) { done = at })
		if Index(idB) != Index(idZ) || idB == idZ {
			t.Fatalf("want recycled slot under new generation: %v then %v", idZ, idB)
		}
		n.Cancel(idZ) // stale — must not cancel B
		if n.StaleCancels != 1 {
			t.Errorf("StaleCancels = %d, want 1", n.StaleCancels)
		}
		e.Run()
		if math.Abs(float64(done)-0.1) > 1e-9 {
			t.Errorf("B done at %v, want 0.1", done)
		}
		// And the other direction: a zero-size flow recycling a positive
		// flow's slot stays cancellable through its own fresh handle.
		idC := n.Start(nil, 0, func(sim.Time) { t.Error("cancelled zero-size flow fired") })
		if Index(idC) != Index(idB) || idC == idB {
			t.Fatalf("want recycled slot under new generation: %v then %v", idB, idC)
		}
		n.Cancel(idC)
		e.Run()
		if n.Active() != 0 || n.tab.liveCount != 0 {
			t.Errorf("Active() = %d, liveCount = %d after drain, want 0, 0",
				n.Active(), n.tab.liveCount)
		}
	})
}

// TestPathArenaSpanReuse: steady churn over a fixed path length must
// converge the arena instead of growing it per Start — the slot's span
// is reused whenever the new path fits.
func TestPathArenaSpanReuse(t *testing.T) {
	g, fwd, _ := lineGraph(1000)
	e := sim.NewEngine()
	n := NewNetwork(e, g)
	id := n.Start(fwd, 1e12, func(sim.Time) {})
	arenaLen := len(n.tab.arena)
	for i := 0; i < 100; i++ {
		n.Cancel(id)
		id = n.Start(fwd, 1e12, func(sim.Time) {})
	}
	if len(n.tab.arena) != arenaLen {
		t.Errorf("arena grew from %d to %d under fixed-length churn",
			arenaLen, len(n.tab.arena))
	}
	n.Cancel(id)
	e.Run()
}

// Package sim provides the discrete-event simulation core used by every
// other package in this repository: a monotone virtual clock, an
// allocation-free event queue with deterministic tie-breaking, and a seeded
// deterministic random number generator.
//
// The engine is intentionally minimal: an Engine owns a clock and a queue
// of (time, sequence, callback) events. Callbacks run strictly in (time,
// sequence) order, so two events scheduled for the same instant execute in
// scheduling order, which makes every simulation in this repository
// reproducible bit-for-bit for a given seed.
//
// Event state lives in a dense SoA arena on the flow-table pattern
// (DESIGN.md §13): parallel slices indexed by the slot half of a
// generation-tagged EventID handle, with a LIFO free list recycling slots.
// The pending slots wait in a Queue (queue.go), the indexed 4-ary min-heap
// that flow.Network also keeps its predicted completions in. Boxing a
// *Event per Schedule through container/heap was most of the event core's
// allocation and GC bill at hundreds of millions of events per endurance
// run; steady-state Schedule/Cancel/Reschedule churn allocates nothing.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds.
type Time float64

// Duration is a simulated time span in seconds.
type Duration = Time

// Common duration helpers (seconds-based, mirroring time package idioms).
const (
	Nanosecond  Duration = 1e-9
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1.0
	Minute      Duration = 60.0
	Hour        Duration = 3600.0
)

// Infinity is a time later than any event the engine will ever run.
const Infinity Time = math.MaxFloat64

// EventID is the handle of a pending event: the low 32 bits index the
// dense event arena, the high 32 bits carry the slot generation at
// scheduling time (the same packing as flow.FlowID). Handles are always
// positive and nonzero, so 0 is the universal "no event" sentinel. A
// handle outliving its event — the event fired or was canceled, and its
// slot possibly recycled — goes stale rather than aliasing the slot's
// next occupant: Cancel ignores it, Reschedule returns false.
type EventID int64

// eventIdxBits is the slot-index width of an EventID handle.
const eventIdxBits = 32

// eventIDOf packs a slot index and its generation into an EventID.
func eventIDOf(idx int32, gen uint32) EventID {
	return EventID(int64(gen)<<eventIdxBits | int64(uint32(idx)))
}

// eventIndex extracts the dense slot index of an event handle.
func eventIndex(id EventID) int32 { return int32(uint32(uint64(id))) }

// eventGen extracts the generation tag of an event handle.
func eventGen(id EventID) uint32 { return uint32(uint64(id) >> eventIdxBits) }

// Engine is a discrete-event simulator.
type Engine struct {
	now Time
	seq uint64

	// Event arena (SoA): per-slot parallel slices. A slot is either free
	// (on evFree) or queued in queue under its (time, seq) key. evGen is
	// bumped on every free, never zero, so stale handles are detected
	// instead of acting on a recycled slot.
	evGen []uint32
	evFn  []func(*Engine)
	// evFree is the LIFO slot free list: a recurring event (the flow
	// network's settle) keeps reusing the same hot slot.
	evFree []int32
	queue  Queue

	// Processed counts events actually executed; useful for ablation
	// benchmarks.
	Processed uint64
	// OnStep, when non-nil, observes every executed event (current time and
	// queue depth after the pop) — the telemetry layer's engine probe. The
	// nil check is the only cost when unset.
	OnStep func(at Time, pending int)
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule enqueues fn to run at absolute time at and returns its handle.
// Scheduling in the past is a programming error and panics.
func (e *Engine) Schedule(at Time, fn func(*Engine)) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	var idx int32
	if k := len(e.evFree); k > 0 {
		idx = e.evFree[k-1]
		e.evFree = e.evFree[:k-1]
	} else {
		idx = int32(len(e.evGen))
		e.evGen = append(e.evGen, 1)
		e.evFn = append(e.evFn, nil)
	}
	e.evFn[idx] = fn
	e.queue.Set(idx, at, e.seq)
	e.seq++
	return eventIDOf(idx, e.evGen[idx])
}

// After enqueues fn to run d seconds from now.
func (e *Engine) After(d Duration, fn func(*Engine)) EventID {
	return e.Schedule(e.now+d, fn)
}

// Reschedule moves a still-pending event to a new absolute time without
// the Cancel+Schedule round trip and double heap rebalance. The event is
// re-sequenced as if freshly scheduled, preserving FIFO order among
// same-time events. Returns false for stale handles — the event already
// fired or was canceled (possibly with its slot since recycled); the
// caller should Schedule anew. Rescheduling into the past panics, like
// Schedule.
func (e *Engine) Reschedule(id EventID, at Time) bool {
	idx, ok := e.resolve(id)
	if !ok {
		return false
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, e.now))
	}
	e.queue.Set(idx, at, e.seq)
	e.seq++
	return true
}

// Cancel removes a pending event. Stale handles — already-fired or
// already-canceled events, including slots since recycled by a later
// Schedule — are ignored: a late cancel can never remove the slot's next
// occupant.
func (e *Engine) Cancel(id EventID) {
	idx, ok := e.resolve(id)
	if !ok {
		return
	}
	e.queue.Remove(idx)
	e.freeSlot(idx)
}

// resolve authenticates a handle against its slot: in-range, queued, and
// generation-matched.
func (e *Engine) resolve(id EventID) (int32, bool) {
	idx := eventIndex(id)
	if idx < 0 || int(idx) >= len(e.evGen) {
		return idx, false
	}
	if !e.queue.Contains(idx) || e.evGen[idx] != eventGen(id) {
		return idx, false
	}
	return idx, true
}

// freeSlot returns an arena slot to the free list, bumping its generation
// so outstanding handles go stale, and dropping the callback so the arena
// retains nothing.
func (e *Engine) freeSlot(idx int32) {
	e.evFn[idx] = nil
	e.evGen[idx]++
	if e.evGen[idx] == 0 {
		e.evGen[idx] = 1 // generation wrap: skip 0 so handles stay nonzero
	}
	e.evFree = append(e.evFree, idx)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.queue.Len() }

// PeekTime returns the time of the next event, or Infinity if none.
func (e *Engine) PeekTime() Time {
	_, at := e.queue.Head()
	return at
}

// Step executes the single next event, returning false when the queue is
// empty. The event's slot is freed before its callback runs, so a
// recurring callback that immediately re-Schedules reuses the slot it just
// vacated (and its own handle is stale by the time it runs, per contract).
func (e *Engine) Step() bool {
	idx, at := e.queue.Pop()
	if idx < 0 {
		return false
	}
	if at < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = at
	fn := e.evFn[idx]
	e.freeSlot(idx)
	e.Processed++
	if e.OnStep != nil {
		e.OnStep(e.now, e.queue.Len())
	}
	fn(e)
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with At <= deadline, then sets the clock to
// deadline (if the simulation had not already passed it).
func (e *Engine) RunUntil(deadline Time) {
	for e.queue.Len() > 0 && e.PeekTime() <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

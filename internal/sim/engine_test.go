package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func(*Engine) { got = append(got, 3) })
	e.Schedule(1, func(*Engine) { got = append(got, 1) })
	e.Schedule(2, func(*Engine) { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(1, func(*Engine) { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of FIFO order at %d: %v", i, got[i])
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(*Engine)
	tick = func(en *Engine) {
		count++
		if count < 10 {
			en.After(1, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 9 {
		t.Errorf("Now() = %v, want 9", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(5, func(*Engine) { fired = true })
	e.Schedule(1, func(en *Engine) { en.Cancel(ev) })
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	// Double-cancel is a no-op.
	e.Cancel(ev)
}

func TestEngineReschedule(t *testing.T) {
	e := NewEngine()
	var got []int
	ev := e.Schedule(5, func(*Engine) { got = append(got, 1) })
	e.Schedule(3, func(*Engine) { got = append(got, 3) })
	if !e.Reschedule(ev, 2) {
		t.Fatal("Reschedule of a pending event returned false")
	}
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("order = %v, want [1 3] (rescheduled event first)", got)
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
	// A fired event cannot be rescheduled.
	if e.Reschedule(ev, 10) {
		t.Error("Reschedule of a fired event returned true")
	}
	if e.Reschedule(0, 10) {
		t.Error("Reschedule(0) returned true")
	}
}

func TestEngineRescheduleResequences(t *testing.T) {
	// Rescheduling onto an occupied instant lands AFTER events already
	// scheduled there — same FIFO rule as a fresh Schedule.
	e := NewEngine()
	var got []int
	ev := e.Schedule(1, func(*Engine) { got = append(got, 1) })
	e.Schedule(2, func(*Engine) { got = append(got, 2) })
	e.Reschedule(ev, 2)
	e.Run()
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("order = %v, want [2 1] (reschedule re-sequences)", got)
	}
}

func TestEngineReschedulePastPanics(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(5, func(*Engine) {})
	e.Schedule(3, func(*Engine) {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Error("expected panic rescheduling into the past")
		}
	}()
	e.Reschedule(ev, 1)
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func(*Engine) {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	e.Schedule(1, func(*Engine) {})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func(*Engine) { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	// RunUntil advances the clock even with no events in range.
	e2 := NewEngine()
	e2.RunUntil(42)
	if e2.Now() != 42 {
		t.Errorf("empty RunUntil: Now() = %v, want 42", e2.Now())
	}
}

func TestEnginePeekTime(t *testing.T) {
	e := NewEngine()
	if e.PeekTime() != Infinity {
		t.Error("PeekTime on empty queue should be Infinity")
	}
	e.Schedule(7, func(*Engine) {})
	if e.PeekTime() != 7 {
		t.Errorf("PeekTime = %v, want 7", e.PeekTime())
	}
}

// TestEngineStaleHandlesOnRecycledSlot pins the generation-tag contract:
// once an event fires or is canceled, its handle must never act on the
// slot's next occupant, even though the LIFO free list guarantees the very
// next Schedule reuses that slot.
func TestEngineStaleHandlesOnRecycledSlot(t *testing.T) {
	e := NewEngine()
	victim := false
	old := e.Schedule(1, func(*Engine) {})
	e.Cancel(old)
	// LIFO free list: this reuses old's slot with a bumped generation.
	repl := e.Schedule(2, func(*Engine) { victim = true })
	if eventIndex(repl) != eventIndex(old) {
		t.Fatalf("free list did not recycle slot %d (got %d)", eventIndex(old), eventIndex(repl))
	}
	if eventGen(repl) == eventGen(old) {
		t.Fatal("recycled slot kept its generation")
	}
	e.Cancel(old) // stale: must not cancel repl
	if e.Reschedule(old, 50) {
		t.Error("Reschedule of a stale handle returned true")
	}
	e.Run()
	if !victim {
		t.Error("stale Cancel removed the slot's new occupant")
	}
	// Out-of-range and zero handles are stale too.
	e.Cancel(eventIDOf(1000, 1))
	if e.Reschedule(eventIDOf(1000, 1), 99) {
		t.Error("Reschedule of an out-of-range handle returned true")
	}
}

// TestEngineFIFOAfterSlotReuse checks that slot recycling never perturbs
// FIFO order among same-time events: ordering is by sequence number, which
// keeps increasing across reuse of the same arena slot.
func TestEngineFIFOAfterSlotReuse(t *testing.T) {
	e := NewEngine()
	var got []int
	// Churn: allocate and cancel to stack the free list.
	for i := 0; i < 8; i++ {
		e.Cancel(e.Schedule(1, func(*Engine) {}))
	}
	// These all land at t=1 on recycled slots; FIFO order must hold.
	for i := 0; i < 8; i++ {
		i := i
		e.Schedule(1, func(*Engine) { got = append(got, i) })
	}
	// Cancel-and-rescheduled event lands after the existing t=1 cohort.
	late := e.Schedule(0.5, func(*Engine) { got = append(got, 8) })
	e.Reschedule(late, 1)
	e.Run()
	for i := 0; i <= 8; i++ {
		if got[i] != i {
			t.Fatalf("order after slot reuse = %v, want 0..8 in sequence", got)
		}
	}
}

// TestEngineOnStepQueueDepth checks the OnStep probe under the arena:
// pending is reported after the pop, before the callback runs.
func TestEngineOnStepQueueDepth(t *testing.T) {
	e := NewEngine()
	var depths []int
	var times []Time
	e.OnStep = func(at Time, pending int) {
		times = append(times, at)
		depths = append(depths, pending)
	}
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func(*Engine) {})
	}
	e.Run()
	wantDepths := []int{4, 3, 2, 1, 0}
	for i := range wantDepths {
		if depths[i] != wantDepths[i] {
			t.Fatalf("depths = %v, want %v", depths, wantDepths)
		}
		if times[i] != Time(i) {
			t.Fatalf("times = %v, want 0..4", times)
		}
	}
}

// TestEngineSteadyStateAllocFree is the event core's allocation contract:
// steady-state schedule/cancel/reschedule/fire churn does not allocate.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func(*Engine) {}
	// Warm up the arena, heap, and free list.
	for i := 0; i < 64; i++ {
		e.After(1, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		a := e.After(1, fn)
		b := e.After(2, fn)
		e.Reschedule(b, 3)
		e.Cancel(a)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state event churn allocates %v allocs/op, want 0", allocs)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide too often: %d/1000", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(2)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRandGeometricMean(t *testing.T) {
	r := NewRand(3)
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		g := r.Geometric(0.8)
		if g < 1 {
			t.Fatalf("Geometric returned %d < 1", g)
		}
		sum += g
	}
	mean := float64(sum) / n
	// E[X] = 1/p = 1.25.
	if math.Abs(mean-1.25) > 0.01 {
		t.Errorf("geometric mean = %v, want ~1.25", mean)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		n := 1 + int(seed%64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(4)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("normal variance = %v, want ~4", variance)
	}
}

func TestRandLogNormalMedian(t *testing.T) {
	r := NewRand(5)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormalFactor(0.3)
		if vals[i] <= 0 {
			t.Fatal("LogNormalFactor must be positive")
		}
	}
	// Median should be ~1: count below 1.
	below := 0
	for _, v := range vals {
		if v < 1 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("fraction below 1 = %v, want ~0.5", frac)
	}
}

// Property: engine clock never moves backwards across random schedules.
func TestEngineClockMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		e := NewEngine()
		last := Time(-1)
		ok := true
		for i := 0; i < 50; i++ {
			at := Time(r.Float64() * 100)
			e.Schedule(at, func(en *Engine) {
				if en.Now() < last {
					ok = false
				}
				last = en.Now()
				// Schedule a random follow-up in the future.
				en.After(Duration(r.Float64()), func(*Engine) {})
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

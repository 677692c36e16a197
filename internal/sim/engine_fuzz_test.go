package sim

import (
	"cmp"
	"slices"
	"testing"
)

// refEvent is a pending event of refEngine: its time, its scheduling
// sequence and the label the fuzz run gave it.
type refEvent struct {
	at    Time
	seq   uint64
	label int
}

// firing is one event run: its label and the time it ran at.
type firing struct {
	label int
	at    Time
}

// refEngine is FuzzEngine's reference: a plain slice of pending events,
// kept sorted by (time, scheduling seq), the order the Engine promises.
// fired logs the events in the order they ran.
type refEngine struct {
	now     Time
	seq     uint64
	pending []refEvent
	fired   []firing
}

// schedule inserts label's event at its sorted position.
func (r *refEngine) schedule(at Time, label int) {
	ev := refEvent{at: at, seq: r.seq, label: label}
	r.seq++
	i, _ := slices.BinarySearchFunc(r.pending, ev, func(a, b refEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	r.pending = slices.Insert(r.pending, i, ev)
}

// find returns the position of label among the pending events, or -1.
func (r *refEngine) find(label int) int {
	return slices.IndexFunc(r.pending, func(ev refEvent) bool { return ev.label == label })
}

func (r *refEngine) cancel(label int) {
	if i := r.find(label); i >= 0 {
		r.pending = slices.Delete(r.pending, i, i+1)
	}
}

func (r *refEngine) reschedule(label int, at Time) bool {
	if r.find(label) < 0 {
		return false
	}
	r.cancel(label)
	r.schedule(at, label)
	return true
}

func (r *refEngine) step() bool {
	if len(r.pending) == 0 {
		return false
	}
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.at
	r.fired = append(r.fired, firing{ev.label, ev.at})
	return true
}

func (r *refEngine) runUntil(deadline Time) {
	for len(r.pending) > 0 && r.pending[0].at <= deadline {
		r.step()
	}
	r.now = max(r.now, deadline)
}

func (r *refEngine) peekTime() Time {
	if len(r.pending) == 0 {
		return Infinity
	}
	return r.pending[0].at
}

// fuzzEngineOps caps the operations one FuzzEngine input runs: the
// reference is linear per operation, and short inputs keep the fuzzer
// fast.
const fuzzEngineOps = 512

// FuzzEngine decodes its input, two bytes per operation, into Schedule,
// After, Cancel, Reschedule, Step and RunUntil calls and replays them on an
// Engine and on refEngine. Cancel and Reschedule pick any handle issued so
// far, so they also present stale handles of fired and cancelled events
// whose slots the LIFO free list has recycled. An event whose label is 3
// mod 4 schedules a follow-up from its own callback, into the slot it has
// just vacated. Delays are multiples of 1/4 below 2 s, so same-instant
// ties are common and every time is exact. After every operation the two
// must agree on the events fired, in order and with their times, on Now,
// Pending and PeekTime, and on Step's and Reschedule's results: a stale
// handle acts on nothing. The committed corpus (testdata/fuzz/FuzzEngine)
// runs as ordinary tests; make fuzz explores further.
func FuzzEngine(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		ref := &refEngine{}
		var fired []firing
		var handles []EventID
		// schedule issues the next label's event d from now on both sides.
		var schedule func(d Duration, after bool)
		schedule = func(d Duration, after bool) {
			label := len(handles)
			fn := func(en *Engine) {
				fired = append(fired, firing{label, en.Now()})
				if label%4 == 3 {
					schedule(Time(label%2)/4, true)
				}
			}
			var id EventID
			if after {
				id = e.After(d, fn)
			} else {
				id = e.Schedule(e.Now()+d, fn)
			}
			handles = append(handles, id)
			ref.schedule(e.Now()+d, label)
		}
		data = data[:min(len(data), 2*fuzzEngineOps)]
		checked := 0 // fired entries already compared
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%6, data[i+1]
			d := Time(arg&7) / 4
			label := 0
			if len(handles) > 0 {
				label = int(arg>>3) % len(handles)
			}
			switch op {
			case 0, 1:
				schedule(d, op == 1)
			case 2:
				if len(handles) > 0 {
					e.Cancel(handles[label])
					ref.cancel(label)
				}
			case 3:
				if len(handles) > 0 {
					at := e.Now() + d
					if got, want := e.Reschedule(handles[label], at), ref.reschedule(label, at); got != want {
						t.Fatalf("op %d: Reschedule(label %d, %v) = %v, want %v", i/2, label, at, got, want)
					}
				}
			case 4:
				if got, want := e.Step(), ref.step(); got != want {
					t.Fatalf("op %d: Step() = %v, want %v", i/2, got, want)
				}
			case 5:
				at := e.Now() + d
				e.RunUntil(at)
				ref.runUntil(at)
			}
			if len(fired) != len(ref.fired) || !slices.Equal(fired[checked:], ref.fired[checked:]) {
				t.Fatalf("op %d: fired %v, want %v", i/2, fired, ref.fired)
			}
			checked = len(fired)
			if e.Now() != ref.now || e.Pending() != len(ref.pending) || e.PeekTime() != ref.peekTime() {
				t.Fatalf("op %d: Now %v, Pending %d, PeekTime %v; want %v, %d, %v", i/2,
					e.Now(), e.Pending(), e.PeekTime(), ref.now, len(ref.pending), ref.peekTime())
			}
		}
		e.Run()
		ref.runUntil(Infinity)
		if !slices.Equal(fired, ref.fired) {
			t.Fatalf("after Run: fired %v, want %v", fired, ref.fired)
		}
	})
}

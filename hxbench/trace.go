package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// kind names a layer boundary the tracer times.
type kind uint8

const (
	kBuildMachine kind = iota // one machine: topology, tables, plane wiring
	kTopo                     // a topology builder
	kRoute                    // a routing engine run (a table-cache miss)
	kRebuild                  // faults.SMConfig.Rebuild during a re-sweep
	kCell                     // one exp.Runner cell
	kLaunch                   // mpi.Launch: ranks advance to their first block
	kFinish                   // telemetry stream footers and close
	kStepDispatch             // an Engine.Step that did not re-rate flows
	kStepSettle               // an Engine.Step in which flow rates were recomputed
	kStepSweep                // an Engine.Step in which the subnet manager re-swept
	kSend                     // Messenger.Send
	kDeliver                  // a delivery callback above the fabric (MPI progress)
	kSink                     // a telemetry.Sink call
	nKinds
)

var kindNames = [nKinds]string{
	"build_machine", "topo.build", "route.build", "route.rebuild", "exp.cell",
	"mpi.launch", "telemetry.finish", "sim.step", "flow.settle", "faults.sweep",
	"fabric.send", "mpi.deliver", "telemetry.sink",
}

// fine kinds fire per event or per message; they are aggregated only, so a
// traced run keeps O(layers) memory instead of one record per event.
func (k kind) fine() bool { return k >= kStepDispatch }

// agg accumulates every span of one kind. Self time is a span's duration
// minus the time its child spans cover.
type agg struct {
	n                uint64
	total, self, max int64
}

// span is one recorded coarse span. Times are nanoseconds since the
// tracer's epoch; parent is the id of the nearest recorded enclosing span,
// 0 at the root.
type span struct {
	ID, Parent int64
	Name       string
	Start, End int64
}

type frame struct {
	start, child int64
	id           int64 // recorded span id, or the nearest recorded ancestor's
}

// tracer records spans for one goroutine: boundaries nest strictly, so a
// stack of open frames gives every span its parent and its self time.
// Goroutines that run concurrently each get their own tracer and merge it
// into a shared one when they finish. A nil *tracer records nothing.
type tracer struct {
	now   func() int64
	ids   *atomic.Int64
	stack []frame
	agg   [nKinds]agg
	spans []span
	// lines counts telemetry records written through traced sinks.
	lines uint64

	mu sync.Mutex // guards merge
}

// newTracer returns a tracer reading the monotonic clock.
func newTracer() *tracer {
	epoch := time.Now()
	return &tracer{now: func() int64 { return int64(time.Since(epoch)) }, ids: new(atomic.Int64)}
}

// child returns a tracer for another goroutine sharing t's clock and span
// ids; fold it back with merge.
func (t *tracer) child() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{now: t.now, ids: t.ids}
}

func (t *tracer) begin(k kind) {
	if t == nil {
		return
	}
	f := frame{start: t.now()}
	if len(t.stack) > 0 {
		f.id = t.stack[len(t.stack)-1].id
	}
	if !k.fine() {
		f.id = t.ids.Add(1)
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost open span and files it under k, which may
// differ from the kind it was begun with when the boundary only learns its
// kind at the end (a step that turns out to settle flows).
func (t *tracer) end(k kind) {
	if t == nil {
		return
	}
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	a := &t.agg[k]
	a.n++
	a.total += d
	a.self += d - f.child
	if d > a.max {
		a.max = d
	}
	parent := int64(0)
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		p.child += d
		parent = p.id
	}
	if !k.fine() {
		t.spans = append(t.spans, span{ID: f.id, Parent: parent, Name: kindNames[k], Start: f.start, End: now})
	}
}

// merge folds a finished child tracer into t; safe for concurrent callers.
func (t *tracer) merge(c *tracer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.agg {
		a, b := &t.agg[k], c.agg[k]
		a.n += b.n
		a.total += b.total
		a.self += b.self
		if b.max > a.max {
			a.max = b.max
		}
	}
	t.spans = append(t.spans, c.spans...)
	t.lines += c.lines
}

// durations returns the durations, in seconds, of recorded spans named
// like k.
func (t *tracer) durations(k kind) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == kindNames[k] {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// tracedMessenger times the transport handed to mpi.Launch: each Send, and
// each delivery callback the layer above registered with it.
type tracedMessenger struct {
	fabric.Messenger
	tr *tracer
}

func (m tracedMessenger) Send(src, dst topo.NodeID, size int64, onDelivered func(at sim.Time)) {
	m.tr.begin(kSend)
	m.Messenger.Send(src, dst, size, func(at sim.Time) {
		m.tr.begin(kDeliver)
		onDelivered(at)
		m.tr.end(kDeliver)
	})
	m.tr.end(kSend)
}

// tracedSink times a telemetry sink and counts the records written to it.
type tracedSink struct {
	telemetry.Sink
	tr *tracer
}

func (s tracedSink) Write(l telemetry.Line) error {
	s.tr.begin(kSink)
	err := s.Sink.Write(l)
	s.tr.end(kSink)
	s.tr.lines++
	return err
}

func (s tracedSink) Flush() error {
	s.tr.begin(kSink)
	err := s.Sink.Flush()
	s.tr.end(kSink)
	return err
}

func (s tracedSink) Close() error {
	s.tr.begin(kSink)
	err := s.Sink.Close()
	s.tr.end(kSink)
	return err
}

// stepStats are the high-water marks the traced step loop samples.
type stepStats struct {
	queueMax, activeMax int
}

func (s *stepStats) max(o stepStats) {
	if o.queueMax > s.queueMax {
		s.queueMax = o.queueMax
	}
	if o.activeMax > s.activeMax {
		s.activeMax = o.activeMax
	}
}

// runSteps drives eng to an empty queue like Engine.Run. With a tracer it
// times every Engine.Step and files the step under faults.sweep when the
// subnet manager's Rebuild ran in it (the sweep's revalidation and table
// swap are the step's self time), under flow.settle when the fabrics'
// solver recompute count moved, and under sim.step otherwise. Nested spans
// (sends, deliveries, rebuilds, sink writes) are subtracted from the
// step's self time.
func runSteps(eng *sim.Engine, tr *tracer, fabs []*fabric.Fabric, st *stepStats) {
	if tr == nil {
		eng.Run()
		return
	}
	recomputes := func() (n uint64) {
		for _, f := range fabs {
			n += f.Net.Recomputes
		}
		return n
	}
	for eng.Pending() > 0 {
		r0, s0 := recomputes(), tr.agg[kRebuild].n
		tr.begin(kStepDispatch)
		eng.Step()
		k := kStepDispatch
		switch {
		case tr.agg[kRebuild].n != s0:
			k = kStepSweep
		case recomputes() != r0:
			k = kStepSettle
		}
		tr.end(k)
		if q := eng.Pending(); q > st.queueMax {
			st.queueMax = q
		}
		active := 0
		for _, f := range fabs {
			active += f.Net.Active()
		}
		if active > st.activeMax {
			st.activeMax = active
		}
	}
}

// fabricsOf lists the per-plane fabrics behind a messenger.
func fabricsOf(m fabric.Messenger) []*fabric.Fabric {
	switch f := m.(type) {
	case *fabric.Fabric:
		return []*fabric.Fabric{f}
	case *fabric.MultiFabric:
		out := make([]*fabric.Fabric, f.NumPlanes())
		for i := range out {
			out[i] = f.Plane(i)
		}
		return out
	}
	return nil
}

package telemetry

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/sim"
)

// The event trace uses the Chrome trace_event JSON-array format, loadable
// in chrome://tracing and Perfetto: each event carries a phase ("X" =
// complete span with duration, "i" = instant), microsecond timestamps, and
// a (pid, tid) lane. We map layers to pids (1 = fabric traffic, 2 = subnet
// manager / faults) and, for messages, the source terminal index to tid so
// each sender renders as its own lane.

const (
	// TracePidFabric is the trace process lane for message traffic.
	TracePidFabric = 1
	// TracePidSM is the trace process lane for faults and SM sweeps.
	TracePidSM = 2
	// TracePlaneStride separates the pid lanes of successive planes of a
	// multi-plane machine: plane p's fabric traffic renders as pid
	// TracePidFabric + p*TracePlaneStride, its subnet manager as
	// TracePidSM + p*TracePlaneStride. The stride is applied inside
	// Span/Instant from the collector's Plane field, so every layer that
	// traces through a plane's collector lands on that plane's lanes.
	TracePlaneStride = 10
)

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

func (traceEvent) LineKind() string { return "trace" }

func usec(t sim.Time) float64 { return 1e6 * float64(t) }

// SetTraceSink streams trace events out as they are recorded: the pid-lane
// metadata goes out immediately, every later Span/Instant follows, and
// FinishTraceStream seals the document. Without a trace sink the collector
// records no trace at all. Pair it with NewTraceSink for a valid Chrome
// trace_event file.
func (c *Collector) SetTraceSink(s Sink) {
	c.out[traceOut] = stream{sink: s}
	if !c.tracing() {
		return
	}
	// Name the pid lanes with "M"-phase process_name metadata, so Perfetto
	// shows "fabric [hyperx]" instead of a bare pid.
	suffix := ""
	if c.PlaneName != "" {
		suffix = " [" + c.PlaneName + "]"
	}
	name := func(n string) map[string]any { return map[string]any{"name": n + suffix} }
	c.out[traceOut].write(traceEvent{Name: "process_name", Ph: "M", Pid: TracePidFabric + TracePlaneStride*c.Plane, Args: name("fabric")})
	c.out[traceOut].write(traceEvent{Name: "process_name", Ph: "M", Pid: TracePidSM + TracePlaneStride*c.Plane, Args: name("subnet-manager")})
}

// tracing reports whether trace events have somewhere to go.
func (c *Collector) tracing() bool {
	return c != nil && c.Opts.Trace && c.out[traceOut].sink != nil
}

// FinishTraceStream seals the streaming trace document and closes the
// sink, returning the first error the trace export saw. A collector
// without a trace sink returns nil.
func (c *Collector) FinishTraceStream() error { return c.alone().FinishTraceStream() }

// Span records a completed interval [start, end] on the given lane.
func (c *Collector) Span(pid, tid int, cat, name string, start, end sim.Time, args map[string]any) {
	if !c.tracing() {
		return
	}
	c.out[traceOut].write(traceEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts: usec(start), Dur: usec(end - start),
		Pid: pid + TracePlaneStride*c.Plane, Tid: tid, Args: args,
	})
}

// Instant records a point event on the given lane.
func (c *Collector) Instant(pid, tid int, cat, name string, at sim.Time, args map[string]any) {
	if !c.tracing() {
		return
	}
	c.out[traceOut].write(traceEvent{
		Name: name, Cat: cat, Ph: "i", S: "t",
		Ts: usec(at), Pid: pid + TracePlaneStride*c.Plane, Tid: tid, Args: args,
	})
}

// traceMsg emits a closed message record as a lifecycle span on the
// sender's lane.
func (c *Collector) traceMsg(r *MsgRecord) {
	if !c.tracing() {
		return
	}
	name := fmt.Sprintf("msg %d->%d", r.Src, r.Dst)
	cat := "msg"
	switch {
	case r.Redispatched:
		cat = "msg-redispatched"
	case !r.Delivered:
		cat = "msg-lost"
	}
	args := map[string]any{"bytes": r.Size, "hops": r.Hops}
	if r.Retries > 0 {
		args["retries"] = r.Retries
	}
	c.Span(TracePidFabric, int(r.Src), cat, name, r.Issued, r.Finished, args)
}

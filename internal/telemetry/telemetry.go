// Package telemetry is the observability layer of the simulated fabric:
// InfiniBand-style per-channel counters (PortXmitData/PortXmitWait
// analogues), per-message flow-completion records, a Chrome
// trace_event-compatible event trace, and streamed JSONL export.
//
// Domke et al. diagnosed the HyperX-vs-Fat-Tree congestion behaviour on the
// real TSUBAME2 by reading exactly these counters off the switches; this
// package gives the simulator the same lens. A Collector is attached to a
// fabric with (*fabric.Fabric).AttachTelemetry; every layer it observes
// (sim engine, flow network, fabric, subnet manager) carries a nil-checked
// hook, so a fabric without a collector pays nothing.
//
// Counters are sampled on the flow network's rate-recompute events — the
// instants at which per-flow rates change — so the byte and wait-time
// integrals are exact, not polled approximations. The central invariant
// (tested in telemetry's integration tests) is conservation: the sum of
// XmitData over all fabric channels equals the sum over delivered messages
// of bytes x path-hops.
package telemetry

import (
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// Options select what a Collector records.
type Options struct {
	// Counters enables the per-channel IB-style counter set. On by
	// default via New.
	Counters bool
	// Messages enables per-message records (FCT distributions).
	Messages bool
	// Trace enables the Chrome trace_event timeline (message lifecycle
	// spans, fault instants, subnet-manager sweeps).
	Trace bool
}

// Collector accumulates one run's observability data. It is not
// concurrency-safe: the simulation is single-threaded by construction.
type Collector struct {
	Opts Options

	// Plane identifies the network plane this collector observes (0 for
	// single-plane machines) and PlaneName its display label. On
	// multi-plane machines each plane gets its own collector (see Multi);
	// the plane id is threaded through trace pid lanes and exported rows
	// so per-plane traffic stays separable after export.
	Plane     int
	PlaneName string

	// Chans is the per-channel counter set; nil when Opts.Counters is
	// false.
	Chans *ChannelCounters

	// FCTHist is the mergeable completion-time distribution of delivered
	// messages (unit seconds); nil unless Opts.Messages. The FCT
	// percentiles come from it: closed records leave memory as "msg"
	// lines, the distribution stays.
	FCTHist *Hist
	// QueueHist is the engine pending-event-queue depth distribution,
	// sampled per executed event once an engine is attached.
	QueueHist *Hist

	// MaxQueueDepth is the high-watermark of the engine's pending-event
	// queue, sampled per executed event when an engine is attached.
	MaxQueueDepth int

	eng *sim.Engine

	// out holds the two streamed exports, the metrics JSONL and the
	// trace, indexed by output. open/freeSlots form the
	// O(concurrent-messages) table of open records.
	out       [2]stream
	open      []MsgRecord
	freeSlots []int
	agg       msgAgg
}

// output indexes a collector's streamed exports.
type output int

const (
	metricsOut output = iota
	traceOut
)

// stream is one streamed export from attach to close: writes go to the
// sink until the first error, which is latched and reported when the
// export finishes (FinishStream, FinishTraceStream).
type stream struct {
	sink Sink
	err  error
}

// write writes l unless the stream has no sink or has failed.
func (s *stream) write(l Line) {
	if s.sink != nil && s.err == nil {
		s.err = s.sink.Write(l)
	}
}

// msgAgg accumulates the run-summary aggregates of closed records; with
// the histograms it is the only per-run message state the collector keeps.
type msgAgg struct {
	started      int
	redispatched int
	delivered    int
	bytes        float64
	bytesHops    float64
	fctSum       float64
	fctMax       float64
}

// New builds a collector over g's channels with the given options.
func New(g *topo.Graph, opts Options) *Collector {
	c := &Collector{Opts: opts}
	if opts.Counters {
		c.Chans = NewChannelCounters(g)
	}
	if opts.Messages {
		c.FCTHist = NewHist("fct", "s", 1e9)
	}
	c.QueueHist = NewHist("queue_depth", "events", 1)
	return c
}

// SetSink attaches a streaming sink: every message record is written as a
// "msg" line the moment it closes, and FinishStream appends the trailing
// "hist"/"chan"/"run" summary lines. Records never outlive their message
// (without a sink they only feed FCTSummary), so memory stays
// O(concurrently in-flight messages) for arbitrarily long runs. Attach
// before traffic starts; the first write error is latched and surfaces
// from FinishStream.
func (c *Collector) SetSink(s Sink) { c.out[metricsOut] = stream{sink: s} }

// emit writes one line to the metrics stream.
func (c *Collector) emit(l Line) { c.out[metricsOut].write(l) }

// AttachEngine hooks the collector into the event loop to sample queue
// depth. The fabric's AttachTelemetry calls this; standalone users may too.
func (c *Collector) AttachEngine(eng *sim.Engine) { c.alone().AttachEngine(eng) }

// alone is the one-plane Multi of c: a lone collector attaches and
// finishes its streams exactly as a one-plane machine's does.
func (c *Collector) alone() *Multi { return &Multi{Planes: []*Collector{c}} }

// EventsProcessed reports the attached engine's executed-event count, or 0
// without an engine.
func (c *Collector) EventsProcessed() uint64 {
	if c.eng == nil {
		return 0
	}
	return c.eng.Processed
}

// Now reports the attached engine's current simulated time — after a run,
// the elapsed makespan the utilization columns normalize by.
func (c *Collector) Now() sim.Time {
	if c.eng == nil {
		return 0
	}
	return c.eng.Now()
}

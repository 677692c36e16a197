package telemetry

import (
	"cmp"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// Multi bundles one Collector per plane of a multi-plane machine and
// merges their exports. Per-plane counters stay separate — each plane has
// its own graph and channel ID space — while the machine-level summary,
// the JSONL stream and the Chrome trace interleave all planes with the
// plane id stamped on every row and pid lane. Attach it with
// (*fabric.MultiFabric).AttachTelemetry.
type Multi struct {
	Planes []*Collector
}

// NewMulti builds one collector per plane over the planes' graphs, wiring
// plane ids and display names (names may be shorter than gs).
func NewMulti(gs []*topo.Graph, names []string, opts Options) *Multi {
	m := &Multi{}
	for i, g := range gs {
		c := New(g, opts)
		c.Plane = i
		if i < len(names) {
			c.PlaneName = names[i]
		}
		m.Planes = append(m.Planes, c)
	}
	return m
}

// SetSink attaches one shared streaming sink to every plane's collector:
// "msg" lines from all planes interleave in completion order (each stamped
// with its plane id), and FinishStream appends per-plane footers plus,
// with more than one plane, the machine-level summary before closing the
// sink once.
func (m *Multi) SetSink(s Sink) {
	for _, c := range m.Planes {
		c.SetSink(s)
	}
}

// SetTraceSink attaches one shared streaming trace sink to every plane
// (each plane's lane metadata is emitted immediately); close it with
// FinishTraceStream.
func (m *Multi) SetTraceSink(s Sink) {
	for _, c := range m.Planes {
		c.SetTraceSink(s)
	}
}

// AttachEngine hooks every plane into the engine the planes share. Each
// plane's run line reports that engine's events, so each plane samples
// its queue depth. (*fabric.MultiFabric).AttachTelemetry calls it.
func (m *Multi) AttachEngine(eng *sim.Engine) {
	for _, c := range m.Planes {
		c.eng = eng
	}
	eng.OnStep = func(_ sim.Time, pending int) {
		for _, c := range m.Planes {
			c.MaxQueueDepth = max(c.MaxQueueDepth, pending)
			c.QueueHist.ObserveTick(uint64(pending))
		}
	}
}

// FinishStream completes a shared streaming export: every plane's
// "hist"/"chan"/"run" footer, the machine summary line last when there is
// more than one plane, then one Close on the shared sink. Returns the
// first error any plane latched.
func (m *Multi) FinishStream() error { return m.finish(metricsOut) }

// FinishTraceStream seals the shared streaming trace document with a
// single Close, returning the first error any plane's trace export saw.
func (m *Multi) FinishTraceStream() error { return m.finish(traceOut) }

// finish ends output o, which every plane writes to one shared sink. For
// the metrics it writes each plane's footer and, with more than one
// plane, the machine line; then it closes the sink once. It returns the
// first error a plane latched or the sink reported, and nil when no plane
// has a sink for o.
func (m *Multi) finish(o output) error {
	var sink Sink
	var first error
	for _, c := range m.Planes {
		s := &c.out[o]
		if s.sink == nil {
			continue
		}
		if o == metricsOut {
			c.writeStreamFooter()
		}
		sink, first = s.sink, cmp.Or(first, s.err)
		*s = stream{}
	}
	if sink == nil {
		return nil
	}
	if o == metricsOut && len(m.Planes) > 1 {
		first = cmp.Or(first, sink.Write(m.makeMachineLine()))
	}
	return cmp.Or(first, sink.Close())
}

// TotalXmitData sums transmitted bytes over every plane's channel set —
// the left-hand side of the machine-level conservation identity
// (ΣXmitData == Σ bytes×hops over delivered messages, all planes).
func (m *Multi) TotalXmitData() float64 {
	var total float64
	for _, c := range m.Planes {
		if c.Chans != nil {
			total += c.Chans.TotalXmitData()
		}
	}
	return total
}

// FCTSummary merges every plane's aggregates and FCT histograms into one
// machine-level summary. A record closed as redispatched is plane-local
// bookkeeping: the plane that carries the message opens a fresh record, so
// N counts each message once. The histogram merge is order-independent, so
// the machine percentiles match what an offline re-merge of the exported
// per-plane "hist" lines would give.
func (m *Multi) FCTSummary() Summary {
	var a msgAgg
	merged := NewHist("fct", "s", 1e9)
	for _, c := range m.Planes {
		a.started += c.agg.started - c.agg.redispatched
		a.delivered += c.agg.delivered
		a.bytes += c.agg.bytes
		a.bytesHops += c.agg.bytesHops
		a.fctSum += c.agg.fctSum
		a.fctMax = max(a.fctMax, c.agg.fctMax)
		if c.FCTHist != nil {
			merged.Merge(c.FCTHist)
		}
	}
	return a.summary(merged)
}

// machineLine is the machine-level summary row of a multi-plane export.
type machineLine struct {
	Planes    int     `json:"planes"`
	Messages  int     `json:"messages"`
	Delivered int     `json:"delivered"`
	Bytes     float64 `json:"bytes"`
	BytesHops float64 `json:"bytes_hops"`
	XmitData  float64 `json:"xmit_data_total"`
	FCTp50    float64 `json:"fct_p50_s"`
	FCTp99    float64 `json:"fct_p99_s"`
}

func (machineLine) LineKind() string { return "machine" }

// makeMachineLine reduces the machine to its summary line.
func (m *Multi) makeMachineLine() machineLine {
	s := m.FCTSummary()
	return machineLine{
		Planes: len(m.Planes), Messages: s.N, Delivered: s.Delivered,
		Bytes: s.Bytes, BytesHops: s.BytesHops,
		XmitData: m.TotalXmitData(),
		FCTp50:   float64(s.P50), FCTp99: float64(s.P99),
	}
}

package telemetry

import (
	"fmt"
	"io"

	"github.com/hpcsim/t2hx/internal/sim"
)

// JSONL export: one self-describing object per line, distinguished by a
// "kind" field — a "run" summary, one "msg" line per recorded message, one
// "hist" line per distribution (FCT, engine queue depth, per-channel
// XmitWait), and one "chan" line per fabric channel that saw traffic. The
// format is grep/jq-friendly and append-mergeable across runs.
//
// "msg" lines appear as messages finish, and FinishStream appends "hist",
// "chan" and finally "run" when the run's totals are known. Consumers must
// key on "kind", not position.

type runLine struct {
	Plane     int     `json:"plane"`
	PlaneName string  `json:"plane_name,omitempty"`
	Messages  int     `json:"messages"`
	Delivered int     `json:"delivered"`
	Bytes     float64 `json:"bytes"`
	BytesHops float64 `json:"bytes_hops"`
	XmitData  float64 `json:"xmit_data_total"`
	FCTp50    float64 `json:"fct_p50_s"`
	FCTp95    float64 `json:"fct_p95_s"`
	FCTp99    float64 `json:"fct_p99_s"`
	FCTMax    float64 `json:"fct_max_s"`
	HCAWaitS  float64 `json:"hca_wait_s"`
	Events    uint64  `json:"engine_events"`
	MaxQueue  int     `json:"engine_max_queue"`
}

func (runLine) LineKind() string { return "run" }

type msgLine struct {
	Plane        int     `json:"plane"`
	Src          int32   `json:"src"`
	Dst          int32   `json:"dst"`
	Size         int64   `json:"size"`
	Issued       float64 `json:"issued_s"`
	Wired        float64 `json:"wired_s"`
	Finished     float64 `json:"finished_s"`
	FCT          float64 `json:"fct_s"`
	Hops         int     `json:"hops"`
	Retries      int     `json:"retries,omitempty"`
	Delivered    bool    `json:"delivered"`
	Redispatched bool    `json:"redispatched,omitempty"`
}

func (msgLine) LineKind() string { return "msg" }

type chanLine struct {
	Plane    int     `json:"plane"`
	Channel  int32   `json:"channel"`
	From     string  `json:"from"`
	To       string  `json:"to"`
	XmitData float64 `json:"xmit_data"`
	XmitWait float64 `json:"xmit_wait_s"`
	HWM      int32   `json:"active_hwm"`
}

func (chanLine) LineKind() string { return "chan" }

// histLine is one exported distribution: the convenience percentiles plus
// the full mergeable bucket state (see HistSnapshot), so offline tooling
// can re-merge shards from several runs or planes and recompute any
// quantile.
type histLine struct {
	Plane int     `json:"plane"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Mean  float64 `json:"mean"`
	HistSnapshot
}

func (histLine) LineKind() string { return "hist" }

// makeMsgLine renders a closed record as its export line.
func makeMsgLine(plane int, r *MsgRecord) msgLine {
	return msgLine{
		Plane: plane, Src: int32(r.Src), Dst: int32(r.Dst), Size: r.Size,
		Issued: float64(r.Issued), Wired: float64(r.Wired),
		Finished: float64(r.Finished), FCT: float64(r.FCT()),
		Hops: r.Hops, Retries: r.Retries, Delivered: r.Delivered,
		Redispatched: r.Redispatched,
	}
}

// makeHistLine renders a histogram with its convenience percentiles.
func makeHistLine(plane int, h *Hist) histLine {
	return histLine{
		Plane: plane, P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		Mean: h.Mean(), HistSnapshot: h.Snapshot(),
	}
}

// makeRunLine reduces the collector to its summary line.
func (c *Collector) makeRunLine() runLine {
	s := c.FCTSummary()
	run := runLine{
		Plane: c.Plane, PlaneName: c.PlaneName,
		Messages: s.N, Delivered: s.Delivered,
		Bytes: s.Bytes, BytesHops: s.BytesHops,
		FCTp50: float64(s.P50), FCTp95: float64(s.P95),
		FCTp99: float64(s.P99), FCTMax: float64(s.Max),
		Events: c.EventsProcessed(), MaxQueue: c.MaxQueueDepth,
	}
	if c.Chans != nil {
		run.XmitData = c.Chans.TotalXmitData() // flushes outstanding integrals
		run.HCAWaitS = float64(c.Chans.HCAWait)
	}
	return run
}

// writeStreamFooter emits the trailing summary lines of a streaming
// export through the sink: the distributions — FCT (when message
// recording is on), engine queue depth (when an engine ran), and the
// per-channel XmitWait distribution derived from the counters — then the
// per-channel counter lines (channels with traffic only), then "run".
func (c *Collector) writeStreamFooter() {
	if c.FCTHist != nil && c.FCTHist.Count() > 0 {
		c.emit(makeHistLine(c.Plane, c.FCTHist))
	}
	if c.QueueHist != nil && c.QueueHist.Count() > 0 {
		c.emit(makeHistLine(c.Plane, c.QueueHist))
	}
	if c.Chans != nil {
		c.Chans.Flush() // reading the XmitWait slice directly
		xw := NewHist("xmit_wait", "s", 1e9)
		for _, w := range c.Chans.XmitWait {
			if w > 0 {
				xw.Observe(float64(w))
			}
		}
		if xw.Count() > 0 {
			c.emit(makeHistLine(c.Plane, xw))
		}
		for _, h := range c.Chans.HotLinks(0, 0) {
			c.emit(chanLine{
				Plane: c.Plane, Channel: int32(h.Channel), From: h.From, To: h.To,
				XmitData: h.Bytes, XmitWait: float64(h.Wait), HWM: h.HWM,
			})
		}
	}
	c.emit(c.makeRunLine())
}

// FinishStream completes a streaming export: the trailing summary lines,
// a final flush, and the sink's Close. It returns the first error the
// export saw — including write failures latched mid-run — so callers can
// exit non-zero instead of shipping a silently truncated metrics file. A
// collector without a sink returns nil.
func (c *Collector) FinishStream() error { return c.alone().FinishStream() }

// FprintHotLinks renders the paper-style top-n counter readout (the
// PortXmitData/PortXmitWait table read off TSUBAME2's switches) to w,
// reporting the first write error instead of dropping rows silently.
func FprintHotLinks(w io.Writer, cc *ChannelCounters, n int, elapsed sim.Duration) error {
	hot := cc.HotLinks(n, elapsed)
	if _, err := fmt.Fprintf(w, "top %d channels by XmitWait (of %d with traffic):\n", len(hot), len(cc.HotLinks(0, 0))); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-24s %-24s %12s %12s %6s %6s\n", "from", "to", "XmitData", "XmitWait", "util", "flows"); err != nil {
		return err
	}
	for _, h := range hot {
		if _, err := fmt.Fprintf(w, "  %-24s %-24s %10.1fMB %10.3fms %5.1f%% %6d\n",
			h.From, h.To, h.Bytes/1e6, 1e3*float64(h.Wait), 100*h.Utilization, h.HWM); err != nil {
			return err
		}
	}
	if cc.HCAWait > 0 {
		if _, err := fmt.Fprintf(w, "  (HCA/node-bandwidth wait, not on any cable: %.3fms)\n", 1e3*float64(cc.HCAWait)); err != nil {
			return err
		}
	}
	return nil
}

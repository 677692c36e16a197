package telemetry

import (
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// MsgRecord is the lifecycle of one fabric message: issued when the
// application posted the send, wired when the (final) transfer attempt hit
// the flow network, finished when the last byte arrived. Retries counts
// re-sends forced by faults or unroutable tables; Hops is the channel
// count of the delivering path (terminal links included, 0 for loopback).
type MsgRecord struct {
	Src, Dst  topo.NodeID
	Size      int64
	Issued    sim.Time
	Wired     sim.Time
	Finished  sim.Time
	Hops      int
	Retries   int
	Delivered bool
	Loopback  bool
	// Redispatched marks a message that left this plane for a sibling
	// plane of a MultiFabric; its delivery is recorded by the collector
	// of the plane that carried it.
	Redispatched bool
}

// FCT is the message's flow completion time (issue to delivery); 0 for
// undelivered messages.
func (r MsgRecord) FCT() sim.Duration {
	if !r.Delivered {
		return 0
	}
	return r.Finished - r.Issued
}

// StartMsg opens a record and returns its index, or -1 when message
// recording is off (callers pass the index back into the other Msg hooks,
// which all tolerate -1, so the fabric needs no second nil-check). The
// index addresses the open-slot table, whose slots are recycled as records
// close.
func (c *Collector) StartMsg(src, dst topo.NodeID, size int64, now sim.Time) int {
	if c == nil || !c.Opts.Messages {
		return -1
	}
	c.agg.started++
	r := MsgRecord{Src: src, Dst: dst, Size: size, Issued: now, Wired: -1}
	if k := len(c.freeSlots); k > 0 {
		slot := c.freeSlots[k-1]
		c.freeSlots = c.freeSlots[:k-1]
		c.open[slot] = r
		return slot
	}
	c.open = append(c.open, r)
	return len(c.open) - 1
}

// MsgWired stamps the instant a transfer attempt reached the wire.
func (c *Collector) MsgWired(rec int, now sim.Time) {
	if rec >= 0 {
		c.open[rec].Wired = now
	}
}

// MsgRetry counts one failed delivery attempt.
func (c *Collector) MsgRetry(rec int) {
	if rec >= 0 {
		c.open[rec].Retries++
	}
}

// closeMsg finalizes a record: histogram and aggregate updates, the trace
// span, the streamed "msg" line, and slot recycling.
func (c *Collector) closeMsg(rec int, r *MsgRecord) {
	switch {
	case r.Delivered:
		c.agg.delivered++
		c.agg.bytes += float64(r.Size)
		c.agg.bytesHops += float64(r.Size) * float64(r.Hops)
		fct := float64(r.FCT())
		c.agg.fctSum += fct
		if fct > c.agg.fctMax {
			c.agg.fctMax = fct
		}
		c.FCTHist.Observe(fct)
	case r.Redispatched:
		c.agg.redispatched++
	}
	c.traceMsg(r)
	if c.out[metricsOut].sink != nil {
		c.emit(makeMsgLine(c.Plane, r))
	}
	c.freeSlots = append(c.freeSlots, rec)
}

// MsgDelivered closes a record and, with tracing on, emits the message's
// lifecycle span.
func (c *Collector) MsgDelivered(rec int, now sim.Time, hops int, loopback bool) {
	if rec < 0 {
		return
	}
	r := &c.open[rec]
	r.Finished = now
	r.Hops = hops
	r.Delivered = true
	r.Loopback = loopback
	c.closeMsg(rec, r)
}

// MsgRedispatched closes a record for a message handed to a sibling
// plane; the receiving plane's collector opens a fresh record for it.
func (c *Collector) MsgRedispatched(rec int, now sim.Time) {
	if rec < 0 {
		return
	}
	r := &c.open[rec]
	r.Finished = now
	r.Redispatched = true
	c.closeMsg(rec, r)
}

// MsgGiveUp closes a record for a message dropped after its retry budget.
func (c *Collector) MsgGiveUp(rec int, now sim.Time) {
	if rec < 0 {
		return
	}
	r := &c.open[rec]
	r.Finished = now
	c.closeMsg(rec, r)
}

// Summary holds the FCT distribution statistics the paper-adjacent work
// (FatPaths, fault-tolerant HyperX routing) reports.
type Summary struct {
	N         int
	Delivered int
	Mean      sim.Duration
	P50       sim.Duration
	P95       sim.Duration
	P99       sim.Duration
	Max       sim.Duration
	// Bytes is the delivered payload; BytesHops the conservation
	// right-hand side (sum of bytes x hops over delivered messages).
	Bytes     float64
	BytesHops float64
}

// FCTSummary reduces the plane's records to completion-time statistics and
// the conservation right-hand side. N counts every record the plane opened,
// redispatched ones included.
func (c *Collector) FCTSummary() Summary { return c.agg.summary(c.FCTHist) }

// summary is the one reduction behind every FCTSummary: N, Delivered,
// Bytes, BytesHops, Mean and Max are exact running aggregates; the
// percentiles come from the mergeable FCT histogram h (nearest rank,
// relative error <= 2^-HistSubBits).
func (a *msgAgg) summary(h *Hist) Summary {
	s := Summary{N: a.started, Delivered: a.delivered, Bytes: a.bytes, BytesHops: a.bytesHops}
	if a.delivered == 0 {
		return s
	}
	s.Mean = sim.Duration(a.fctSum / float64(a.delivered))
	s.P50 = sim.Duration(h.Quantile(0.50))
	s.P95 = sim.Duration(h.Quantile(0.95))
	s.P99 = sim.Duration(h.Quantile(0.99))
	s.Max = sim.Duration(a.fctMax)
	return s
}

package telemetry

import (
	"sort"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// ChannelCounters is the IB-style counter set, one slot per directed fabric
// channel (2 per link). The flow network feeds it on every rate-recompute
// interval, so the integrals are exact for the flow model:
//
//   - XmitData[c]: bytes that crossed channel c — the PortXmitData
//     analogue (IB counts 4-byte lanes; we keep bytes).
//   - XmitWait[c]: accumulated time flows bottlenecked at c spent below
//     their bottleneck-free rate, weighted by the stalled fraction — the
//     PortXmitWait analogue (ticks with data queued but no credit).
//   - ActiveHWM[c]: high-watermark of concurrent flows crossing c.
//
// Flows also traverse virtual per-node (PCIe/HCA) channels; those fall
// outside the fabric channel range and their wait time is accumulated in
// HCAWait instead, separating host-side from fabric-side contention.
type ChannelCounters struct {
	g *topo.Graph

	XmitData  []float64      // bytes, indexed by topo.ChannelID
	XmitWait  []sim.Duration // seconds
	ActiveHWM []int32

	// HCAWait aggregates wait time attributed to per-node aggregate
	// bandwidth channels (host bottleneck, not a fabric cable).
	HCAWait sim.Duration

	// flush, when set (flow.SetCounters wires it to Network.FlushCounters),
	// forces the flow network's lazily-deferred rate integrals before a
	// read: flows only credit their intervals when their own rate changes,
	// so any accessor below flushes first to make the counters exact as of
	// the current instant (DESIGN.md §13). Readers going straight to the
	// exported slices must call Flush themselves.
	flush func()
}

// NewChannelCounters sizes the counter set for g's channels.
func NewChannelCounters(g *topo.Graph) *ChannelCounters {
	n := 2 * len(g.Links)
	return &ChannelCounters{
		g:         g,
		XmitData:  make([]float64, n),
		XmitWait:  make([]sim.Duration, n),
		ActiveHWM: make([]int32, n),
	}
}

// SetFlusher registers the producer's integration barrier; nil detaches.
func (cc *ChannelCounters) SetFlusher(f func()) { cc.flush = f }

// Flush forces every outstanding lazily-deferred interval into the
// counters. Called implicitly by the read accessors; exported for readers
// that index the counter slices directly.
func (cc *ChannelCounters) Flush() {
	if cc.flush != nil {
		cc.flush()
	}
}

// AddXmit credits bytes to a channel. Out-of-range channels (virtual node
// channels) are ignored: they model host DMA, not a cable.
func (cc *ChannelCounters) AddXmit(c topo.ChannelID, bytes float64) {
	if int(c) < len(cc.XmitData) {
		cc.XmitData[c] += bytes
	}
}

// AddWait credits stalled time to the flow's bottleneck channel, or to the
// HCA aggregate for node channels.
func (cc *ChannelCounters) AddWait(c topo.ChannelID, d sim.Duration) {
	if int(c) < len(cc.XmitWait) {
		cc.XmitWait[c] += d
	} else {
		cc.HCAWait += d
	}
}

// NoteActive raises the concurrent-flow high-watermark of a channel.
func (cc *ChannelCounters) NoteActive(c topo.ChannelID, n int) {
	if int(c) < len(cc.ActiveHWM) && int32(n) > cc.ActiveHWM[c] {
		cc.ActiveHWM[c] = int32(n)
	}
}

// TotalXmitData sums transmitted bytes over all fabric channels — the
// left-hand side of the conservation identity.
func (cc *ChannelCounters) TotalXmitData() float64 {
	cc.Flush()
	var sum float64
	for _, b := range cc.XmitData {
		sum += b
	}
	return sum
}

// HotLink is one row of the paper-style counter readout.
type HotLink struct {
	Channel topo.ChannelID
	// From/To label the channel's endpoints.
	From, To string
	// Bytes is XmitData; Wait is XmitWait; HWM the concurrent-flow
	// high-watermark.
	Bytes float64
	Wait  sim.Duration
	HWM   int32
	// Utilization is Bytes/(capacity*elapsed) for the elapsed passed to
	// HotLinks; 0 when elapsed is 0.
	Utilization float64
}

// HotLinks returns the top-n channels ranked by wait time (then bytes) —
// the `ibqueryerrors`/perfquery-style readout the paper used to find hot
// Fat-Tree uplinks. Channels with zero traffic are skipped.
func (cc *ChannelCounters) HotLinks(n int, elapsed sim.Duration) []HotLink {
	cc.Flush()
	var out []HotLink
	for c := range cc.XmitData {
		if cc.XmitData[c] == 0 && cc.XmitWait[c] == 0 {
			continue
		}
		cid := topo.ChannelID(c)
		l := cc.g.Link(cid)
		h := HotLink{
			Channel: cid,
			From:    cc.g.Nodes[cc.g.ChannelFrom(cid)].Label,
			To:      cc.g.Nodes[cc.g.ChannelTo(cid)].Label,
			Bytes:   cc.XmitData[c],
			Wait:    cc.XmitWait[c],
			HWM:     cc.ActiveHWM[c],
		}
		if elapsed > 0 && l.Bandwidth > 0 {
			h.Utilization = h.Bytes / (l.Bandwidth * float64(elapsed))
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wait != out[j].Wait {
			return out[i].Wait > out[j].Wait
		}
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Channel < out[j].Channel
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// SwitchMatrix folds the directed channel counters into a switch x switch
// byte matrix: cell (i, j) holds the bytes sent from switch i to switch j
// over their direct links (parallel links summed). Terminal links are
// excluded. The index is the graph's switch creation order.
func (cc *ChannelCounters) SwitchMatrix() [][]float64 {
	cc.Flush()
	sws := cc.g.Switches()
	idx := make(map[topo.NodeID]int, len(sws))
	for i, s := range sws {
		idx[s] = i
	}
	m := make([][]float64, len(sws))
	for i := range m {
		m[i] = make([]float64, len(sws))
	}
	for c, b := range cc.XmitData {
		if b == 0 {
			continue
		}
		cid := topo.ChannelID(c)
		fi, fok := idx[cc.g.ChannelFrom(cid)]
		ti, tok := idx[cc.g.ChannelTo(cid)]
		if fok && tok {
			m[fi][ti] += b
		}
	}
	return m
}

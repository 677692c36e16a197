package fabric

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/flow"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// Resilience configures mid-run fault tolerance, modelling the InfiniBand
// transport's timeout/retransmit machinery: a message whose path dies (or
// that cannot be routed while the subnet manager is still re-sweeping) is
// re-sent after an escalating backoff until either a usable path appears in
// the tables or the retry budget runs out.
type Resilience struct {
	// RetryBackoff is the delay before the first re-send of a failed
	// message; it doubles per attempt (capped at 2^8 times the base), like
	// the IB local-ACK timeout escalation. Zero selects
	// DefaultRetryBackoff.
	RetryBackoff sim.Duration
	// MaxRetries bounds the re-sends per message (the IB retry_count
	// analogue). Zero selects DefaultMaxRetries; negative disables retries
	// (every failure is final).
	MaxRetries int
	// Redispatch, when set, is consulted before a failed message enters
	// the retry loop. Returning true means another transport (a sibling
	// plane of a MultiFabric) has taken ownership of the message, so this
	// fabric closes its record and stops retrying; false leaves the
	// message to the local backoff/retry budget. Redispatched messages do
	// not consume retry budget on the plane they leave.
	Redispatch func(src, dst topo.NodeID, size int64, onDelivered func(at sim.Time)) bool
}

// DefaultRetryBackoff mirrors a QDR-era local-ACK timeout of a few hundred
// microseconds.
const DefaultRetryBackoff sim.Duration = 250 * sim.Microsecond

// DefaultMaxRetries gives messages roughly 60 ms of cumulative patience at
// the default backoff — enough to ride out a detection + re-sweep cycle.
const DefaultMaxRetries = 12

// maxBackoffDoublings caps the exponential escalation so a long retry
// budget does not produce absurd multi-second gaps.
const maxBackoffDoublings = 8

// pendingSend tracks one logical message across delivery attempts.
type pendingSend struct {
	src, dst    topo.NodeID
	size        int64
	onDelivered func(at sim.Time)
	attempts    int
	// path is the routed (switch-fabric) path of the active attempt; nil
	// between attempts.
	path []topo.ChannelID
	// flowID is the handle of the active attempt's flow while the send is
	// registered in Fabric.inflight; it authenticates the inflight slot
	// against flow-table recycling.
	flowID flow.FlowID
	// rec is the telemetry record index, -1 when telemetry is off.
	rec int
}

// setInflight registers m under its flow's table slot.
func (f *Fabric) setInflight(id flow.FlowID, m *pendingSend) {
	idx := int(flow.Index(id))
	for idx >= len(f.inflight) {
		f.inflight = append(f.inflight, nil)
	}
	m.flowID = id
	f.inflight[idx] = m
	f.inflightN++
}

// clearInflight drops the registration for id, verifying the slot still
// belongs to it (the flow network recycles slots; a stale clear must not
// evict a newer send).
func (f *Fabric) clearInflight(id flow.FlowID) {
	idx := int(flow.Index(id))
	if idx < len(f.inflight) {
		if m := f.inflight[idx]; m != nil && m.flowID == id {
			f.inflight[idx] = nil
			f.inflightN--
		}
	}
}

// EnableResilience switches the fabric from fail-fast sends (panic on an
// unroutable message) to the bounded-retry behaviour described on
// Resilience. Call it before injecting runtime faults.
func (f *Fabric) EnableResilience(r Resilience) {
	if r.RetryBackoff == 0 {
		r.RetryBackoff = DefaultRetryBackoff
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = DefaultMaxRetries
	} else if r.MaxRetries < 0 {
		r.MaxRetries = 0
	}
	f.res = &r
}

// ResilienceEnabled reports whether the bounded-retry layer is active.
func (f *Fabric) ResilienceEnabled() bool { return f.res != nil }

// attempt resolves a path for m and launches the transfer. With resilience
// enabled, resolution failures and paths that break before wire time feed
// the retry loop instead of panicking.
func (f *Fabric) attempt(m *pendingSend) {
	lid := f.selectLID(m.src, m.dst, m.size)
	p, err := f.pathTo(m.src, lid)
	if err != nil {
		// Route toward the base LID as a last resort (mirrors IB path
		// migration); if even that fails the destination is unreachable
		// under the current tables.
		p, err = f.pathTo(m.src, f.Tables.BaseLID[f.Tables.TermIndex(m.dst)])
	}
	if err != nil {
		f.sendFailed(m, err)
		return
	}
	pre := f.overhead() + f.PathLatency(p)
	recvO := f.Params.RecvOverhead
	srcChan, dstChan := topo.ChannelID(-1), topo.ChannelID(-1)
	if f.nodeChan0 >= 0 {
		srcChan = f.nodeChan0 + topo.ChannelID(f.Tables.TermIndex(m.src))
		dstChan = f.nodeChan0 + topo.ChannelID(f.Tables.TermIndex(m.dst))
	}
	adaptivePath := f.pml == adaptive
	if adaptivePath {
		f.noteFlow(p, 1)
	}
	m.path = p
	hops := len(p)
	f.Eng.After(pre, func(*sim.Engine) {
		f.Tel.MsgWired(m.rec, f.Eng.Now())
		if f.res != nil && pathBroken(f.G, p) {
			// The wire died while the head of the message was in flight.
			if adaptivePath {
				f.noteFlow(p, -1)
			}
			f.sendFailed(m, fmt.Errorf("fabric: path %s -> %s broke before wire time",
				f.G.Nodes[m.src].Label, f.G.Nodes[m.dst].Label))
			return
		}
		fp := p
		if srcChan >= 0 {
			// Thread the flow through both endpoints' aggregate-bandwidth
			// channels so concurrent sends+receives of one node share its
			// PCIe/HCA budget. The scratch buffer is safe to reuse across
			// attempts: flow.Start copies the path into its arena before
			// returning.
			fp = append(f.fpScratch[:0], srcChan)
			fp = append(fp, p...)
			fp = append(fp, dstChan)
			f.fpScratch = fp[:0]
		}
		var id flow.FlowID
		id = f.Net.Start(fp, float64(m.size), func(sim.Time) {
			if adaptivePath {
				f.noteFlow(p, -1)
			}
			f.clearInflight(id)
			f.Delivered++
			f.DeliveredBytes += float64(m.size)
			f.Eng.After(recvO, func(e *sim.Engine) {
				f.Tel.MsgDelivered(m.rec, e.Now(), hops, false)
				m.onDelivered(e.Now())
			})
		})
		// Zero-size flows get a real, cancellable ID too, so a link dying
		// under a header-only message tears it down like any other.
		if f.res != nil {
			f.setInflight(id, m)
		}
	})
}

// sendFailed feeds a failed attempt into the bounded-retry loop, or gives
// the message up once the budget is spent.
func (f *Fabric) sendFailed(m *pendingSend, err error) {
	if f.res == nil {
		panic(fmt.Sprintf("fabric: no route %s -> %s: %v",
			f.G.Nodes[m.src].Label, f.G.Nodes[m.dst].Label, err))
	}
	m.path = nil
	if f.res.Redispatch != nil && f.res.Redispatch(m.src, m.dst, m.size, m.onDelivered) {
		// A sibling plane took the message; its delivery is tracked there.
		f.Redispatched++
		f.Tel.MsgRedispatched(m.rec, f.Eng.Now())
		return
	}
	m.attempts++
	if m.attempts > f.res.MaxRetries {
		f.GiveUps++
		f.Tel.MsgGiveUp(m.rec, f.Eng.Now())
		return
	}
	f.Retries++
	f.Tel.MsgRetry(m.rec)
	d := m.attempts - 1
	if d > maxBackoffDoublings {
		d = maxBackoffDoublings
	}
	backoff := f.res.RetryBackoff * sim.Duration(int64(1)<<d)
	f.Eng.After(backoff, func(*sim.Engine) { f.attempt(m) })
}

// pathBroken reports whether any link along p is down.
func pathBroken(g *topo.Graph, p []topo.ChannelID) bool {
	for _, c := range p {
		if g.Link(c).Down {
			return true
		}
	}
	return false
}

// FailChannels reacts to channel failures: cached paths are dropped, and,
// with resilience enabled, every in-flight flow whose routed path crosses a
// channel for which dead returns true is torn down and fed into the retry
// loop (the IB transport's timeout/retransmit path). It returns the number
// of flows torn down. Callers flip the topo.Link Down flags before calling.
func (f *Fabric) FailChannels(dead func(topo.ChannelID) bool) int {
	// Snapshot boundary: integrate every flow to the fault instant before
	// any teardown, so the counters credit exactly the bytes that crossed
	// the fabric while the links were still up. (Cancel would advance each
	// victim anyway; this also closes the intervals of the survivors.)
	f.Net.FlushCounters()
	f.InvalidatePaths()
	if f.res == nil {
		return 0
	}
	// Scanning the dense slot array in ascending index order is
	// deterministic: the flow table assigns slots deterministically, so the
	// retry events scheduled below enqueue in a reproducible order.
	var victims []*pendingSend
	for _, m := range f.inflight {
		if m == nil {
			continue
		}
		for _, c := range m.path {
			if dead(c) {
				victims = append(victims, m)
				break
			}
		}
	}
	for _, m := range victims {
		id := m.flowID
		f.clearInflight(id)
		f.Net.Cancel(id)
		if f.pml == adaptive {
			f.noteFlow(m.path, -1)
		}
		f.TornDown++
		f.sendFailed(m, fmt.Errorf("fabric: link went down under an in-flight flow"))
	}
	return len(victims)
}

// InvalidatePaths drops the resolved-path cache; the next send re-walks the
// forwarding tables. Must be called after any change to table contents or
// link up/down state.
func (f *Fabric) InvalidatePaths() {
	for k := range f.paths {
		delete(f.paths, k)
	}
}

// SwapTables atomically replaces the routing tables — the subnet manager
// swapping re-programmed LFTs into the switches at the end of a re-sweep —
// and drops cached paths. The new tables must be built over the same graph
// with the same terminal set and LID layout, so in-flight destination LIDs
// keep their meaning across the swap.
func (f *Fabric) SwapTables(t *route.Tables) error {
	if t.G != f.G {
		return fmt.Errorf("fabric: new tables routed over a different graph")
	}
	if t.LMC != f.Tables.LMC || t.NumTerminals() != f.Tables.NumTerminals() {
		return fmt.Errorf("fabric: new tables change the LID layout (LMC %d->%d, terminals %d->%d)",
			f.Tables.LMC, t.LMC, f.Tables.NumTerminals(), t.NumTerminals())
	}
	for i, base := range f.Tables.BaseLID {
		if t.BaseLID[i] != base {
			return fmt.Errorf("fabric: new tables reassign base LID of terminal %d (%d -> %d)",
				i, base, t.BaseLID[i])
		}
	}
	f.Tables = t
	f.InvalidatePaths()
	return nil
}

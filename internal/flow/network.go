// Package flow implements a flow-level network simulator with max-min fair
// bandwidth sharing: each active message transfer is a flow over a fixed
// channel path, and the rates of all concurrent flows are the max-min fair
// allocation under per-channel capacities (progressive filling). This is
// the standard fidelity/performance trade-off for studying link contention
// at the paper's scale (672 nodes, up to 4 MiB messages): the central
// phenomenon — many flows squeezed onto one QDR cable — is modelled
// exactly, while per-packet effects are folded into latency and overhead
// terms handled by internal/fabric.
//
// Flow state lives in an arena/SoA table (table.go, DESIGN.md §11): dense
// parallel slices indexed by the slot half of a generation-tagged FlowID
// handle, with paths in a shared arena. At AI scale (≥32k terminals,
// millions of flows per run) this keeps steady-state churn allocation-free
// and gives the GC nothing to trace.
//
// One incremental solver computes the allocation (solver_incremental.go,
// DESIGN.md §7): each settle re-solves only the connected region of the
// flow/channel contention graph reachable from the channels whose flow
// membership actually changed, one component at a time, picking each
// bottleneck by a linear scan over the component's live shared channels.
// A channel one flow crosses (lone: a node or terminal channel, most of a
// component) has its capacity as its share until that flow freezes; a
// round scans the lone channels only when its smallest shared share does
// not lie clearly below the network's smallest capacity, the one case in
// which a lone channel could be or tie the bottleneck. Because distinct
// components of that graph share no channels, the restricted re-solve is
// exactly the global max-min allocation; when the dirty region spans the
// whole network it degenerates into a full solve. The tests hold it to a
// from-scratch progressive-filling oracle and a max-min certificate.
package flow

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// FlowID is the handle of an active flow: the low 32 bits index the dense
// flow table, the high 32 bits carry the slot generation (table.go).
// Handles are always positive and nonzero; a handle outliving its flow
// goes stale rather than aliasing the slot's next occupant.
type FlowID int64

// Network simulates concurrent flows over a topology's directed channels.
type Network struct {
	eng  *sim.Engine
	caps []float64 // per-channel capacity (bytes/s)
	// capMin is the smallest of caps (+Inf without channels): the least a
	// lone channel's share can be (solveComponent).
	capMin float64

	// tab is the SoA flow table every per-flow field lives in.
	tab flowTable

	dirty    bool
	settleEv sim.EventID
	doneEv   sim.EventID
	// settleFn/doneFn are the recurring settle/completion callbacks,
	// built once and re-Scheduled forever: the event arena recycles their
	// slots, so steady-state scheduling churn allocates nothing.
	settleFn func(*sim.Engine)
	doneFn   func(*sim.Engine)
	// done holds each settled positive-size flow's predicted completion,
	// keyed by flow slot and ordered by (time, start seq); doneEv is
	// pointed at its head after every settle.
	done sim.Queue

	// Recomputes counts rate recomputations (for ablation benchmarks).
	Recomputes uint64
	// Components, Rounds and LoneRounds count the solver's work in units
	// no host changes: connected components solved, bottleneck rounds
	// (one freeze each), and the rounds that also scanned lone channels.
	Components uint64
	Rounds     uint64
	LoneRounds uint64
	// StaleCancels counts Cancel calls that presented a once-valid handle
	// whose flow is already gone (generation mismatch on a recycled or
	// freed slot). Such cancels are ignored — the recycled slot's current
	// occupant is never touched — but the count makes handle-lifetime bugs
	// in callers observable instead of silent.
	StaleCancels uint64

	// --- solver state (see solver_incremental.go) ---

	// chanFlows is the persistent channel -> flow membership, parallel to
	// caps; maintained on Start/Cancel/completion instead of rebuilt per
	// recompute.
	chanFlows [][]chanSlot
	// dirtyChans lists channels whose membership changed since the last
	// recompute; dirtyStamp dedupes against dirtyEpoch.
	dirtyChans []topo.ChannelID
	dirtyStamp []uint64
	dirtyEpoch uint64
	// epoch stamps region discovery (regionStamp per channel, tab.mark
	// per flow) so no per-solve clearing is needed.
	epoch       uint64
	regionStamp []uint64
	// Per-channel progressive-filling state, valid only for channels
	// stamped in the current solve.
	residual    []float64
	unfrozenCnt []int32
	// Scratch reused across solves. regionChans/regionFlows hold the
	// dirty region's shared channels and flows, segmented into connected
	// components; comps spans both. liveChans holds the solving
	// component's shared channels that still carry unfrozen flows.
	regionChans []topo.ChannelID
	regionFlows []int32
	comps       []component
	liveChans   []topo.ChannelID
	doneScratch []int32
	cbScratch   []func(at sim.Time)

	// cc receives IB-style per-channel counters, fed exactly on every
	// advance/recompute interval; nil (the default) costs one pointer
	// check per hot-path operation.
	cc *telemetry.ChannelCounters
}

// NewNetwork builds a flow network over g's channels, driven by eng.
func NewNetwork(eng *sim.Engine, g *topo.Graph) *Network {
	n := &Network{
		eng:        eng,
		caps:       make([]float64, 2*len(g.Links)),
		capMin:     math.Inf(1),
		dirtyEpoch: 1,
	}
	for _, l := range g.Links {
		n.caps[2*l.ID] = l.Bandwidth
		n.caps[2*l.ID+1] = l.Bandwidth
		n.capMin = min(n.capMin, l.Bandwidth)
	}
	n.settleFn = func(*sim.Engine) {
		n.settleEv = 0
		n.settle()
	}
	n.doneFn = func(*sim.Engine) {
		n.doneEv = 0
		n.completeDue()
	}
	return n
}

// AddNodeChannels appends count virtual channels of the given capacity and
// returns the ID of the first one. The fabric layer uses these to model
// per-node aggregate (PCIe/HCA) bandwidth limits shared between a node's
// concurrent sends and receives — the reason a QDR HCA never moves
// 2x 3.2 GiB/s even though the wire is full duplex.
func (n *Network) AddNodeChannels(count int, capacity float64) topo.ChannelID {
	first := topo.ChannelID(len(n.caps))
	for i := 0; i < count; i++ {
		n.caps = append(n.caps, capacity)
	}
	if count > 0 {
		n.capMin = min(n.capMin, capacity)
	}
	return first
}

// SetCounters attaches an IB-style counter set. Pass nil to detach. With
// counters attached, each advance() interval credits the flow's moved
// bytes to its channels (XmitData) and its stalled-time fraction to its
// bottleneck channel (XmitWait), so the counters integrate the exact
// piecewise-constant rate trajectory the max-min model computes. Flows
// integrate lazily — only when their own rate is about to change — so the
// counter set is wired back to FlushCounters and any read through its
// accessors forces the outstanding intervals in first (DESIGN.md §13).
func (n *Network) SetCounters(cc *telemetry.ChannelCounters) {
	if n.cc != nil && n.cc != cc {
		n.cc.SetFlusher(nil)
	}
	n.cc = cc
	if cc != nil {
		cc.SetFlusher(n.FlushCounters)
	}
}

// FlushCounters integrates every live flow up to the current instant, the
// barrier that makes lazily-integrated counters readable: rates are
// piecewise-constant and each flow's integral depends only on its own
// (rate, last), so advancing everyone to now — without recomputing
// anything — completes every partial interval and restores the exact
// bytes×hops conservation identity at this instant. Called at every read/
// export/snapshot boundary (telemetry accessors via the flusher hook,
// fault teardown, end-of-run); a no-op without counters attached, where
// nothing observes the integrals between completions.
func (n *Network) FlushCounters() {
	if n.cc == nil {
		return
	}
	n.advanceAll()
}

// Active reports the number of in-flight flows (zero-size flows, which
// complete at the current instant, are not counted).
func (n *Network) Active() int { return n.tab.liveCount - n.tab.zeroCount }

// Start begins transferring size bytes along path; onDone fires when the
// last byte has been put on the wire. Zero/negative sizes complete at the
// current time but still return a live FlowID: cancelling it before the
// same-instant completion event fires suppresses the callback, per the
// Cancel contract. The path must be non-empty for positive sizes.
func (n *Network) Start(path []topo.ChannelID, size float64, onDone func(at sim.Time)) FlowID {
	if size <= 0 {
		idx, id := n.tab.alloc()
		t := &n.tab
		t.pathLen[idx] = 0
		t.remaining[idx] = 0
		t.rate[idx] = 0
		t.solo[idx] = 0
		t.onDone[idx] = onDone
		t.zeroCount++
		t.zeroEv[idx] = n.eng.After(0, func(e *sim.Engine) {
			done := t.onDone[idx]
			t.zeroEv[idx] = 0
			t.zeroCount--
			t.freeSlot(idx)
			done(e.Now())
		})
		return id
	}
	if len(path) == 0 {
		panic("flow: positive-size flow with empty path")
	}
	n.ensureChanArrays()
	idx, id := n.tab.alloc()
	t := &n.tab
	t.setPath(idx, path)
	t.remaining[idx] = size
	t.rate[idx] = 0
	t.solo[idx] = 0
	t.bott[idx] = 0
	t.last[idx] = n.eng.Now()
	t.onDone[idx] = onDone
	if n.cc != nil {
		solo := math.Inf(1)
		for _, c := range path {
			if n.caps[c] < solo {
				solo = n.caps[c]
			}
		}
		t.solo[idx] = solo
	}
	n.addMembership(idx)
	n.markDirty()
	return id
}

// Cancel aborts a flow without firing its callback. Unknown and stale
// handles are ignored (stale ones — a once-valid handle whose slot has
// been freed or recycled — are additionally counted in StaleCancels), so a
// late cancel can never tear down the slot's next occupant. The partial
// bytes a cancelled flow moved before this instant stay credited to the
// attached counters — that is what keeps the bytes×hops conservation
// identity exact under mid-flight teardown.
func (n *Network) Cancel(id FlowID) {
	idx, ok := n.lookup(id)
	if !ok {
		if idx >= 0 && int(idx) < len(n.tab.gen) && handleGen(id) != 0 {
			n.StaleCancels++
		}
		return
	}
	if ev := n.tab.zeroEv[idx]; ev != 0 {
		n.eng.Cancel(ev)
		n.tab.zeroEv[idx] = 0
		n.tab.zeroCount--
		n.tab.freeSlot(idx)
		return
	}
	// Integrate the cancelled flow itself up to now — it is about to leave
	// the table, so this is its last chance to credit its partial bytes.
	// Every other flow whose rate the departure changes is in the settle's
	// dirty region and advances there, at this same instant.
	n.advanceFlow(idx, n.eng.Now())
	n.removeFlow(idx)
	n.markDirty()
}

// removeFlow detaches a flow slot from every solver structure, its
// completion prediction included, and frees it; the caller has already
// integrated its transferred bytes up to now.
func (n *Network) removeFlow(idx int32) {
	n.removeMembership(idx)
	n.done.Remove(idx)
	n.tab.freeSlot(idx)
}

// advanceFlow integrates one flow's transferred bytes up to now. Rates
// are piecewise-constant between recomputes, so crediting rate*dt per
// interval makes the attached counters exact rather than sampled
// approximations.
func (n *Network) advanceFlow(idx int32, now sim.Time) {
	t := &n.tab
	dt := float64(now - t.last[idx])
	if dt > 0 {
		moved := t.rate[idx] * dt
		t.remaining[idx] -= moved
		if n.cc != nil {
			for _, c := range t.path(idx) {
				n.cc.AddXmit(c, moved)
			}
			if t.solo[idx] > 0 && t.rate[idx] < t.solo[idx] {
				// The flow spent this interval below its bottleneck-free
				// rate: charge the stalled fraction to the channel that
				// froze it — the PortXmitWait analogue.
				n.cc.AddWait(t.bott[idx], sim.Duration(dt*(1-t.rate[idx]/t.solo[idx])))
			}
		}
	}
	t.last[idx] = now
}

// advanceAll integrates every live flow up to the current time — the
// flush barrier's workhorse. Walks the dense live list, so a post-churn
// table with mostly-free capacity costs O(live), not O(capacity).
func (n *Network) advanceAll() {
	now := n.eng.Now()
	t := &n.tab
	for _, idx := range t.liveList {
		if t.zeroEv[idx] == 0 {
			n.advanceFlow(idx, now)
		}
	}
}

// markDirty schedules a same-instant settle event that recomputes rates
// once, no matter how many flows were added/removed at this instant.
func (n *Network) markDirty() {
	n.dirty = true
	if n.settleEv == 0 {
		n.settleEv = n.eng.After(0, n.settleFn)
	}
}

// settle recomputes the max-min fair rates and schedules the next
// completion.
func (n *Network) settle() {
	if !n.dirty {
		return
	}
	n.dirty = false
	// No advanceAll here: only the dirty region's rates change, and
	// recomputeIncremental advances exactly those flows before re-rating
	// them. Everyone else's (rate, last) stays valid and integrates lazily.
	n.recomputeIncremental()
	n.scheduleNextDone()
}

// drained reports whether a flow's remaining bytes are within float noise
// of zero.
func (n *Network) drained(idx int32) bool {
	return n.tab.remaining[idx] <= n.tab.rate[idx]*1e-12+1e-6
}

// finishFlows removes the done flows (crediting the float-integration
// residue so bytes×hops conservation holds exactly), re-settles, and
// fires the callbacks in deterministic start order. Callbacks are
// collected before the slots are freed: a callback may Start a flow that
// recycles the very slot it is completing.
func (n *Network) finishFlows(done []int32) {
	t := &n.tab
	slices.SortFunc(done, func(a, b int32) int { return cmp.Compare(t.seq[a], t.seq[b]) })
	cbs := n.cbScratch[:0]
	for _, idx := range done {
		if n.cc != nil {
			// Round the attributed bytes to exactly the flow's size: the
			// epsilon left in remaining (either sign) is what the float
			// integration missed, and crediting it here is what makes the
			// bytes x hops conservation identity hold exactly.
			for _, c := range t.path(idx) {
				n.cc.AddXmit(c, t.remaining[idx])
			}
		}
		cbs = append(cbs, t.onDone[idx])
		n.removeFlow(idx)
	}
	n.markDirty()
	now := n.eng.Now()
	for i, cb := range cbs {
		cb(now)
		cbs[i] = nil // drop the closure so the scratch retains nothing
	}
	n.cbScratch = cbs[:0]
}

// shareEps is the relative tolerance under which two channel fair shares
// count as equal. Mathematically-equal shares computed in different
// orders can differ in the last ulp; comparing exactly would make the
// frozen-channel choice (and thus XmitWait attribution) depend on
// summation order, i.e. nondeterministic across platforms. Within the
// tolerance the smallest channel ID wins.
const shareEps = 1e-9

// sharesEqual is the epsilon-tolerant share comparison.
func sharesEqual(a, b float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= shareEps*m
}

// checkRate guards the solver invariant that every settled flow moves.
func (n *Network) checkRate(idx int32) {
	if n.tab.rate[idx] <= 0 {
		panic(fmt.Sprintf("flow %d has rate %v",
			handleOf(idx, n.tab.gen[idx]), n.tab.rate[idx]))
	}
}

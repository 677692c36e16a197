package flow

import (
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// This file is the arena/SoA flow table (DESIGN.md §11). Flow state lives
// in parallel slices indexed by a dense slot index instead of one
// heap-allocated struct per flow behind a map: at 32k-terminal scale the
// simulator churns millions of flows per run, and the pointer-per-flow
// layout made GC scanning — not the solver — the dominant cost.
//
// A FlowID is a handle packing (generation, slot index) into the existing
// int64: the low 32 bits are the slot, the high 32 bits the slot's
// generation at allocation time. Slots are recycled LIFO through a free
// list; every free bumps the slot generation, so a handle held across its
// flow's death dereferences to a generation mismatch — a detected stale
// handle (Network.StaleCancels) — instead of silently acting on whatever
// flow was recycled into the slot. Generations start at 1, so no valid
// handle is ever 0 (fabric keeps using 0/negative as "no flow" sentinels).
//
// Paths live in one shared growable arena: per slot, (pathOff, pathLen)
// spans arena/posArena instead of owning Path/pos slices. A recycled slot
// reuses its span when the new path fits (pathCap); longer paths get a
// fresh tail span and orphan the old one. The waste is bounded: spans only
// grow toward the topology's maximum path length, so the arena converges
// to (peak slots × longest path) and steady-state churn allocates nothing.

// handleIdxBits is the slot-index width of a FlowID handle.
const handleIdxBits = 32

// handleOf packs a slot index and its generation into a FlowID.
func handleOf(idx int32, gen uint32) FlowID {
	return FlowID(int64(gen)<<handleIdxBits | int64(uint32(idx)))
}

// Index extracts the dense slot index of a flow handle. Layers that keep
// per-flow side state (fabric's in-flight sends, telemetry bookkeeping)
// index their own dense arrays with it instead of mapping on the FlowID.
// The index alone does not prove liveness — slots are recycled — so such
// layers must verify the full handle before trusting a slot.
func Index(id FlowID) int32 { return int32(uint32(uint64(id))) }

// handleGen extracts the generation tag of a flow handle.
func handleGen(id FlowID) uint32 { return uint32(uint64(id) >> handleIdxBits) }

// flowTable is the SoA store for every in-flight flow. All per-slot
// slices are parallel and grow together; a slot is in exactly one of
// three states: free (on the free list), live positive-size, or live
// zero-size (zeroEv non-nil, awaiting its same-instant completion).
type flowTable struct {
	// gen is the slot generation handles are checked against; bumped on
	// every free, never on allocation, and never zero.
	gen  []uint32
	live []bool
	// seq is the flow's monotonic start sequence. Handles stopped being
	// monotonic when slots became recyclable, so every ordering the
	// solver used to derive from FlowID — completion-callback order and
	// the done queue's tie-breaks — orders by seq, which is still exactly
	// "start order".
	seq       []uint64
	remaining []float64 // bytes left to transfer
	rate      []float64 // current bytes/s (max-min share)
	// solo is the flow's bottleneck-free rate (min capacity along the
	// path) and bott the channel progressive filling froze it at — the
	// IB-counter bookkeeping, maintained only when counters are attached.
	solo []float64
	bott []topo.ChannelID
	// last is the flow's integration frontier: remaining is exact as of
	// this time.
	last []sim.Time
	// mark is the region-BFS epoch stamp (incremental solver).
	mark []uint64
	// (pathOff, pathLen) is the slot's span of arena/posArena; pathCap is
	// the span's reusable capacity.
	pathOff []int32
	pathLen []int32
	pathCap []int32
	onDone  []func(at sim.Time)
	// zeroEv is the same-instant completion event of a zero-size flow;
	// 0 for positive-size flows.
	zeroEv []sim.EventID

	free []int32 // LIFO slot free list

	// liveList is the dense list of live slots (zero-size included);
	// livePos is each slot's position in it (-1 when free). The whole-
	// table walk (advanceAll) iterates liveList, so post-churn tables with
	// mostly-free capacity cost O(live) per walk, not O(capacity).
	// Maintained by alloc/freeSlot via swap-remove; its order is
	// event-driven and therefore deterministic, but it is NOT index order —
	// nothing may derive an ordering from it (orderings come from seq).
	liveList []int32
	livePos  []int32

	arena    []topo.ChannelID // all paths, addressed by (pathOff, pathLen)
	posArena []int32          // per-hop chanFlows back-pointers, parallel to arena

	liveCount int // live slots, including zero-size
	zeroCount int // live zero-size slots
	nextSeq   uint64
}

// alloc takes a slot (recycling LIFO) and returns it with the handle that
// names this occupancy. The caller fills the per-flow fields.
func (t *flowTable) alloc() (int32, FlowID) {
	var idx int32
	if k := len(t.free); k > 0 {
		idx = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		idx = int32(len(t.gen))
		t.gen = append(t.gen, 1)
		t.live = append(t.live, false)
		t.seq = append(t.seq, 0)
		t.remaining = append(t.remaining, 0)
		t.rate = append(t.rate, 0)
		t.solo = append(t.solo, 0)
		t.bott = append(t.bott, 0)
		t.last = append(t.last, 0)
		t.mark = append(t.mark, 0)
		t.pathOff = append(t.pathOff, 0)
		t.pathLen = append(t.pathLen, 0)
		t.pathCap = append(t.pathCap, 0)
		t.onDone = append(t.onDone, nil)
		t.zeroEv = append(t.zeroEv, 0)
		t.livePos = append(t.livePos, -1)
	}
	t.live[idx] = true
	t.nextSeq++
	t.seq[idx] = t.nextSeq
	t.livePos[idx] = int32(len(t.liveList))
	t.liveList = append(t.liveList, idx)
	t.liveCount++
	return idx, handleOf(idx, t.gen[idx])
}

// freeSlot returns a slot to the free list, bumping its generation so
// outstanding handles go stale. Callers handle zeroCount and the slot's
// solver state themselves.
func (t *flowTable) freeSlot(idx int32) {
	t.live[idx] = false
	t.onDone[idx] = nil
	t.zeroEv[idx] = 0
	// Swap-remove from the dense live list, repairing the moved slot's
	// back-pointer.
	p := t.livePos[idx]
	last := int32(len(t.liveList) - 1)
	if p != last {
		moved := t.liveList[last]
		t.liveList[p] = moved
		t.livePos[moved] = p
	}
	t.liveList = t.liveList[:last]
	t.livePos[idx] = -1
	t.gen[idx]++
	if t.gen[idx] == 0 {
		t.gen[idx] = 1 // generation wrap: skip 0 so handles stay nonzero
	}
	t.liveCount--
	t.free = append(t.free, idx)
}

// setPath copies path into the slot's arena span, reusing the span when
// the new path fits and growing a fresh tail span otherwise.
func (t *flowTable) setPath(idx int32, path []topo.ChannelID) {
	need := int32(len(path))
	if t.pathCap[idx] < need {
		t.pathOff[idx] = int32(len(t.arena))
		t.pathCap[idx] = need
		t.arena = append(t.arena, path...)
		t.posArena = append(t.posArena, make([]int32, len(path))...)
	} else {
		copy(t.arena[t.pathOff[idx]:t.pathOff[idx]+need], path)
	}
	t.pathLen[idx] = need
}

// path returns the slot's channel path as a view into the arena.
func (t *flowTable) path(idx int32) []topo.ChannelID {
	off := t.pathOff[idx]
	return t.arena[off : off+t.pathLen[idx]]
}

// pos returns the slot's per-hop membership back-pointers, parallel to
// path (incremental solver only; enables O(1) membership removal).
func (t *flowTable) pos(idx int32) []int32 {
	off := t.pathOff[idx]
	return t.posArena[off : off+t.pathLen[idx]]
}

// lookup resolves a handle to its live slot, rejecting out-of-range
// indices, dead slots, and generation mismatches (stale handles).
func (n *Network) lookup(id FlowID) (int32, bool) {
	idx := Index(id)
	if idx < 0 || int(idx) >= len(n.tab.gen) {
		return idx, false
	}
	if !n.tab.live[idx] || n.tab.gen[idx] != handleGen(id) {
		return idx, false
	}
	return idx, true
}

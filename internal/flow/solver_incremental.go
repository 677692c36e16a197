package flow

import (
	"cmp"
	"math"
	"slices"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// This file is the max-min solver. Three ideas keep a settle cheaper than
// a from-scratch progressive filling over every live flow:
//
//  1. Persistent membership: chanFlows (channel -> flow slots, with O(1)
//     swap-remove via the pos arena) is maintained on Start/Cancel/
//     completion instead of being rebuilt from every active flow on every
//     settle.
//  2. Dirty-region re-solve: a settle re-rates only the connected region
//     of the flow/channel contention graph reachable from channels whose
//     membership changed. Distinct components share no channels, so the
//     global max-min allocation decomposes per component; re-solving the
//     touched components from scratch while keeping every other flow's
//     rate is exactly the global solution. When the dirty region spans
//     the whole network this degenerates into a full solve. The region
//     is discovered segmented into its connected components, which are
//     solved one after another in ascending root order (DESIGN.md §12).
//  3. The bottleneck search scans only the component's live shared
//     channels, those crossed by two or more flows that still carry
//     unfrozen ones, and drops each channel once its last flow freezes. A
//     lone channel, crossed by one flow, keeps its capacity as its share
//     until that flow freezes, and that capacity is at least capMin. A
//     round whose smallest shared share lies below capMin·(1−loneMargin)
//     therefore cannot pick or tie a lone channel; only the other rounds
//     also walk the unfrozen flows' lone channels. Lone channels are most
//     of a component (node and terminal channels), and the solve neither
//     initializes, scans nor decrements them. Components are small (tens
//     of channels, a freeze or two), so the scan costs less than building
//     a heap over them would. Each re-rated flow's predicted completion
//     moves in place in the network's done queue (a sim.Queue keyed by
//     flow slot), so a settle leaves no stale prediction behind.
//
// Determinism: bottlenecks freeze in an order fixed by (share, channel
// ID) with the epsilon tie-break, so the float arithmetic — and therefore
// rates, XmitWait attribution and event timing — is reproducible. The
// flows on one bottleneck may freeze in any order: each subtracts the same
// share from every channel it crosses. The epsilon tie-break only looks
// among one component's channels, which is why components are solved
// separately rather than by one scan over the whole region.

// chanSlot is one entry of a channel's flow membership list; hop is the
// flow's path index for this channel, so a swap-remove can repair the
// moved flow's back-pointer in O(1). Pointer-free by design: membership
// lists are the largest live structure at scale and the GC never scans
// them.
type chanSlot struct {
	idx int32 // flow table slot
	hop int32 // index into the flow's path for this channel
}

// component is one connected component of the current dirty region: a
// span of regionChans, which holds its shared channels only, and a span of
// regionFlows (segmented storage — no per-component allocation). root is
// the smallest channel ID in the component, lone channels included, the
// canonical order components are solved in.
type component struct {
	root    topo.ChannelID
	chanOff int32
	chanLen int32
	flowOff int32
	flowLen int32
}

// ensureChanArrays grows the per-channel solver arrays to cover every
// capacity slot (AddNodeChannels appends after construction).
func (n *Network) ensureChanArrays() {
	if len(n.chanFlows) >= len(n.caps) {
		return
	}
	grow := len(n.caps)
	for len(n.chanFlows) < grow {
		n.chanFlows = append(n.chanFlows, nil)
	}
	n.dirtyStamp = append(n.dirtyStamp, make([]uint64, grow-len(n.dirtyStamp))...)
	n.regionStamp = append(n.regionStamp, make([]uint64, grow-len(n.regionStamp))...)
	n.residual = append(n.residual, make([]float64, grow-len(n.residual))...)
	n.unfrozenCnt = append(n.unfrozenCnt, make([]int32, grow-len(n.unfrozenCnt))...)
}

// dirtyChan records a membership change on c for the next recompute.
func (n *Network) dirtyChan(c topo.ChannelID) {
	if n.dirtyStamp[c] == n.dirtyEpoch {
		return
	}
	n.dirtyStamp[c] = n.dirtyEpoch
	n.dirtyChans = append(n.dirtyChans, c)
}

// addMembership inserts the flow slot into the membership list of every
// channel it crosses, dirtying them.
func (n *Network) addMembership(idx int32) {
	t := &n.tab
	pos := t.pos(idx)
	for i, c := range t.path(idx) {
		pos[i] = int32(len(n.chanFlows[c]))
		n.chanFlows[c] = append(n.chanFlows[c], chanSlot{idx: idx, hop: int32(i)})
		n.dirtyChan(c)
	}
}

// removeMembership swap-removes the flow slot from its channels'
// membership lists, dirtying them.
func (n *Network) removeMembership(idx int32) {
	t := &n.tab
	pos := t.pos(idx)
	for i, c := range t.path(idx) {
		s := n.chanFlows[c]
		p := pos[i]
		last := int32(len(s) - 1)
		if p != last {
			moved := s[last]
			s[p] = moved
			t.posArena[t.pathOff[moved.idx]+moved.hop] = p
		}
		n.chanFlows[c] = s[:last]
		n.dirtyChan(c)
	}
}

// consumeDirty resets the dirty set for the next interval.
func (n *Network) consumeDirty() {
	n.dirtyChans = n.dirtyChans[:0]
	n.dirtyEpoch++
}

// lone reports whether exactly one flow crosses channel c. Its share is
// then its capacity until that flow freezes, and nothing else subtracts
// from it; the solver keeps no per-channel state for it.
func (n *Network) lone(c topo.ChannelID) bool { return len(n.chanFlows[c]) == 1 }

// recomputeIncremental re-solves the region of the contention graph
// touched by the dirty channels; flows outside it keep their rates. The
// region is discovered segmented into connected components; each one, in
// ascending root order, is integrated up to now, progressively filled and
// given its completion predictions.
func (n *Network) recomputeIncremental() {
	n.Recomputes++
	if len(n.dirtyChans) == 0 {
		return
	}
	if n.Active() == 0 {
		n.consumeDirty()
		return
	}
	comps := n.discoverComponents()
	if len(comps) == 0 {
		return
	}
	now := n.eng.Now()
	t := &n.tab
	n.Components += uint64(len(comps))
	for ci := range comps {
		comp := &comps[ci]
		flows := n.regionFlows[comp.flowOff : comp.flowOff+comp.flowLen]
		// Integrate the component's flows to now under their outgoing
		// rates before re-rating them: the region is exactly the set of
		// flows whose rates may change, so this closes their current
		// piecewise-constant interval (and credits it to the attached
		// counters) while everyone outside the region keeps integrating
		// lazily.
		for _, idx := range flows {
			n.advanceFlow(idx, now)
		}
		n.solveComponent(comp)
		for _, idx := range flows {
			n.checkRate(idx)
			n.done.Set(idx, now+sim.Time(t.remaining[idx]/t.rate[idx]), t.seq[idx])
		}
	}
}

// discoverComponents runs the dirty-region BFS once per unswept dirty
// seed, segmenting regionChans/regionFlows into connected components. The
// BFS walks every flow's path but expands, and stores, shared channels
// only: a lone channel leads to no other flow. It still lowers the root,
// and its high-watermark (one flow) is noted here, as the solve never
// visits it. The returned slice (backed by n.comps) is sorted by root,
// fixing the solve order; flowless components (membership drained to
// empty) are dropped.
func (n *Network) discoverComponents() []component {
	t := &n.tab
	n.epoch++
	ep := n.epoch
	regionChans := n.regionChans[:0]
	regionFlows := n.regionFlows[:0]
	comps := n.comps[:0]
	for _, seed := range n.dirtyChans {
		if n.regionStamp[seed] == ep {
			continue // already swept into an earlier seed's component
		}
		chanOff := len(regionChans)
		flowOff := len(regionFlows)
		root := topo.ChannelID(math.MaxInt32)
		// Expand the seed, then each shared channel its flows reach. Every
		// flow crossing the seed crosses it on its path, which stamps it.
		c := seed
		for head := chanOff; ; head++ {
			for _, sl := range n.chanFlows[c] {
				if t.mark[sl.idx] == ep {
					continue
				}
				t.mark[sl.idx] = ep
				regionFlows = append(regionFlows, sl.idx)
				for _, c2 := range t.path(sl.idx) {
					if n.regionStamp[c2] == ep {
						continue
					}
					n.regionStamp[c2] = ep
					root = min(root, c2)
					if !n.lone(c2) {
						regionChans = append(regionChans, c2)
					} else if n.cc != nil {
						n.cc.NoteActive(c2, 1)
					}
				}
			}
			if head == len(regionChans) {
				break
			}
			c = regionChans[head]
		}
		if len(regionFlows) == flowOff {
			continue // every flow left this seed's channels: nothing to re-rate
		}
		comps = append(comps, component{
			root:    root,
			chanOff: int32(chanOff),
			chanLen: int32(len(regionChans) - chanOff),
			flowOff: int32(flowOff),
			flowLen: int32(len(regionFlows) - flowOff),
		})
	}
	n.consumeDirty()
	n.regionChans = regionChans
	n.regionFlows = regionFlows
	// Canonical solve order: ascending root.
	slices.SortFunc(comps, func(a, b component) int { return cmp.Compare(a.root, b.root) })
	n.comps = comps
	return comps
}

// loneMargin is δ, the relative margin below capMin under which a round's
// smallest shared share proves that no lone channel takes part in it. A
// lone channel's share is its capacity c ≥ capMin, so a smallest shared
// share low < capMin·(1−δ) lies more than δ·c below it: c is not the
// minimum, and sharesEqual(c, low), which needs c−low ≤ shareEps·c, fails
// with three orders of magnitude to spare over float rounding (δ is 1000
// shareEps). The margin costs exactness nothing; it only decides how
// often a round takes the slower path that also scans lone channels.
const loneMargin = 1e-6

// solveComponent progressively fills one component. It writes only the
// component's own per-channel solver arrays and per-flow SoA entries, and
// only for shared channels: a lone channel's share is its capacity until
// its flow freezes, so it needs no residual or unfrozen count. liveChans
// holds the component's shared channels that still carry unfrozen flows;
// each round scans it for the smallest share and drops the channels the
// last freeze emptied. A round whose smallest shared share is not below
// capMin·(1−loneMargin), or that has no live shared channel, also walks
// the lone channels of the unfrozen flows: its candidates are then
// exactly the live channels of a scan over every channel, for both the
// minimum and the smallest-ID tie.
func (n *Network) solveComponent(comp *component) {
	t := &n.tab
	chans := n.regionChans[comp.chanOff : comp.chanOff+comp.chanLen]
	flows := n.regionFlows[comp.flowOff : comp.flowOff+comp.flowLen]
	live := append(n.liveChans[:0], chans...)
	for _, c := range chans {
		cnt := int32(len(n.chanFlows[c]))
		n.residual[c] = n.caps[c]
		n.unfrozenCnt[c] = cnt
		if n.cc != nil {
			n.cc.NoteActive(c, int(cnt))
		}
	}
	for _, idx := range flows {
		t.rate[idx] = -1 // unfrozen
	}
	fast := n.capMin * (1 - loneMargin)
	for remaining := len(flows); remaining > 0; {
		n.Rounds++
		// Drop the channels whose flows are all frozen and find the exact
		// minimum fair share among the rest.
		low := math.Inf(1)
		k := 0
		for _, c := range live {
			if n.unfrozenCnt[c] == 0 {
				continue
			}
			live[k] = c
			k++
			if s := n.residual[c] / float64(n.unfrozenCnt[c]); s < low {
				low = s
			}
		}
		live = live[:k]
		scanLone := !(low < fast)
		if scanLone {
			n.LoneRounds++
			low = n.loneMin(flows, low)
		}
		// Epsilon tie-break: among the shares equal to the minimum within
		// tolerance, the smallest channel ID is the bottleneck and freezes
		// at its own share, so last-ulp share differences cannot flip the
		// bottleneck choice.
		bott, share := topo.ChannelID(math.MaxInt32), 0.0
		for _, c := range live {
			if c >= bott {
				continue
			}
			if s := n.residual[c] / float64(n.unfrozenCnt[c]); sharesEqual(s, low) {
				bott, share = c, s
			}
		}
		if scanLone {
			bott, share = n.loneTie(flows, low, bott, share)
		}
		if bott == math.MaxInt32 {
			panic("flow: unfrozen flows but no bottleneck channel")
		}
		remaining -= n.freezeChannel(bott, share)
	}
	n.liveChans = live[:0]
}

// loneMin lowers low to the smallest share among the lone channels of the
// unfrozen flows in flows. Such a channel's share is its capacity: the
// residual/unfrozen-count quotient of an untouched channel crossed once.
func (n *Network) loneMin(flows []int32, low float64) float64 {
	t := &n.tab
	for _, idx := range flows {
		if t.rate[idx] >= 0 {
			continue
		}
		for _, c := range t.path(idx) {
			if n.caps[c] < low && n.lone(c) {
				low = n.caps[c]
			}
		}
	}
	return low
}

// loneTie returns the smallest-ID channel among bott and the lone channels
// of the unfrozen flows in flows whose share ties low, with its share.
func (n *Network) loneTie(flows []int32, low float64, bott topo.ChannelID, share float64) (topo.ChannelID, float64) {
	t := &n.tab
	for _, idx := range flows {
		if t.rate[idx] >= 0 {
			continue
		}
		for _, c := range t.path(idx) {
			if c < bott && sharesEqual(n.caps[c], low) && n.lone(c) {
				bott, share = c, n.caps[c]
			}
		}
	}
	return bott, share
}

// freezeChannel freezes every unfrozen flow crossing bott at share and
// subtracts share along their paths. Returns the number frozen. Every flow
// subtracts the same share, so residuals, unfrozen counts and rates come
// out bit-identical whatever order the flows are visited in. Lone channels
// are skipped: the flow that froze was their only one, and no round of
// this solve reads them again.
func (n *Network) freezeChannel(bott topo.ChannelID, share float64) int {
	t := &n.tab
	frozen := 0
	for _, sl := range n.chanFlows[bott] {
		idx := sl.idx
		if t.rate[idx] >= 0 {
			continue
		}
		t.rate[idx] = share
		t.bott[idx] = bott
		for _, c := range t.path(idx) {
			if n.lone(c) {
				continue
			}
			n.residual[c] -= share
			if n.residual[c] < 0 {
				n.residual[c] = 0
			}
			n.unfrozenCnt[c]--
		}
		frozen++
	}
	return frozen
}

// scheduleNextDone points the completion event at the earliest predicted
// completion, moving the queued event in place when possible, and drops
// it when no flow is in flight.
func (n *Network) scheduleNextDone() {
	idx, at := n.done.Head()
	switch {
	case idx < 0:
		if n.doneEv != 0 {
			n.eng.Cancel(n.doneEv)
			n.doneEv = 0
		}
	case n.doneEv == 0 || !n.eng.Reschedule(n.doneEv, at):
		n.doneEv = n.eng.Schedule(at, n.doneFn)
	}
}

// completeDue finishes every flow whose prediction has come due. A due
// flow whose remaining bytes have not in fact drained (float drift between
// the prediction and the integration) moves to a corrected, strictly
// future time, guaranteeing progress.
func (n *Network) completeDue() {
	now := n.eng.Now()
	t := &n.tab
	done := n.doneScratch[:0]
	for {
		idx, at := n.done.Head()
		if idx < 0 || at > now {
			break
		}
		n.done.Pop()
		n.advanceFlow(idx, now)
		if n.drained(idx) {
			done = append(done, idx)
			continue
		}
		at = now + sim.Time(t.remaining[idx]/t.rate[idx])
		if at <= now {
			done = append(done, idx) // residue below time resolution
			continue
		}
		n.done.Set(idx, at, t.seq[idx])
	}
	n.doneScratch = done[:0]
	if len(done) == 0 {
		n.scheduleNextDone()
		return
	}
	n.finishFlows(done)
}

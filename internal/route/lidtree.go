package route

import (
	"math"
	"math/bits"
	"slices"

	"github.com/hpcsim/t2hx/internal/topo"
)

// The paths toward one destination LID form a tree: a packet at a switch
// takes that switch's LFT entry, whichever terminal sent it. Tables.Path
// walks one chain of it per pair; resolving each switch's entry once per
// LID, memoised along the chain, answers every (source switch, LID) key at
// once, and a key's channels are its chain's.

// Per-LID resolution marks of lidTrees.hops; a resolved switch holds its
// switch hops toward the LID, 0 to MaxHops.
const (
	hopsUnresolved int8 = -1 - iota
	hopsOpen            // on the chain being followed
	hopsFailed          // Tables.Path fails from here
)

// headDown marks the channels of down links in channelHeads.
const headDown = math.MinInt32

// channelHeads maps each channel of g to what it leads to: the switch
// index it enters, -1-i toward terminal i, or headDown when its link is
// down. The walks over g's forwarding tables (lidTrees, keyWalk) step
// through it instead of loading each channel's *topo.Link.
func channelHeads(g *topo.Graph) []int32 {
	head := make([]int32, 2*len(g.Links))
	for c := range head {
		n := g.ChannelTo(topo.ChannelID(c))
		switch {
		case g.Link(topo.ChannelID(c)).Down:
			head[c] = headDown
		case g.Nodes[n].Kind == topo.Switch:
			head[c] = int32(g.SwitchIndex(n))
		case g.Nodes[n].Kind == topo.Terminal:
			head[c] = -1 - int32(g.TerminalIndex(n))
		default:
			head[c] = headDown
		}
	}
	return head
}

// termGroups indexes a graph's terminals by the switch they attach to.
// swOf[i] is terminal i's switch index, -1 when terminal i is detached;
// attached counts the others, and members[start[si]:start[si+1]] are
// switch si's attached terminals, as terminal indexes in terminal order.
// The walks over g's forwarding tables (lidTrees, keyWalk) both build it
// here, as they both take channelHeads.
type termGroups struct {
	swOf     []int32
	attached int
	members  []int32
	start    []int32
}

func newTermGroups(g *topo.Graph) termGroups {
	terms := g.Terminals()
	nsw := g.NumSwitches()
	tg := termGroups{swOf: make([]int32, len(terms)), start: make([]int32, nsw+1)}
	for i, tm := range terms {
		tg.swOf[i] = -1
		if sw := g.SwitchOf(tm); sw >= 0 {
			si := g.SwitchIndex(sw)
			tg.swOf[i] = int32(si)
			tg.attached++
			tg.start[si+1]++
		}
	}
	for si := 1; si <= nsw; si++ {
		tg.start[si] += tg.start[si-1]
	}
	tg.members = make([]int32, tg.attached)
	fill := slices.Clone(tg.start[:nsw])
	for i, si := range tg.swOf {
		if si >= 0 {
			tg.members[fill[si]] = int32(i)
			fill[si]++
		}
	}
	return tg
}

// lidTrees resolves the forwarding tree toward one destination LID at a
// time, for Validate and the tests' ChannelLoads. A chain fails exactly where
// Tables.appendPath fails: a missing entry, a down link, delivery to
// another terminal, a loop, or more than MaxHops switch channels.
type lidTrees struct {
	t *Tables
	termGroups
	// roots lists the switches with attached terminals, the keys' source
	// switches.
	roots []int32

	// head[c] is what channel c leads to (channelHeads).
	head []int32

	// The LID resolved last, its owner terminal dst and its slot
	// (dst<<LMC | offset).
	lid  LID
	dst  int
	slot int
	// By switch index: hops toward the LID, or a hops* mark; up is the
	// next switch, -1 where the entry delivers.
	hops []int8
	up   []int32
	// order lists the resolved switches, each after its next switch.
	order []int32
	stack []int32
	sum   []int
}

func newLIDTrees(t *Tables) *lidTrees {
	g := t.G
	nsw := g.NumSwitches()
	tr := &lidTrees{
		t:          t,
		termGroups: newTermGroups(g),
		head:       channelHeads(g),
		hops:       make([]int8, nsw),
		up:         make([]int32, nsw),
		sum:        make([]int, nsw),
	}
	for si := 0; si < nsw; si++ {
		if tr.start[si+1] > tr.start[si] {
			tr.roots = append(tr.roots, int32(si))
		}
	}
	return tr
}

// pairs is the number of source terminals of key (si, the last LID):
// switch si's terminals but the LID's owner.
func (tr *lidTrees) pairs(si int32) int {
	n := int(tr.start[si+1] - tr.start[si])
	if tr.swOf[tr.dst] == si {
		n--
	}
	return n
}

// resolve resolves the tree toward the off-th LID of terminal dst from
// every root switch, following each chain until it meets a resolved
// switch, its destination or a failure, and resolving the chain's switches
// on the way back.
func (tr *lidTrees) resolve(dst, off int) {
	t := tr.t
	lft := t.lft
	tr.dst, tr.slot = dst, dst<<t.LMC|off
	lid := t.BaseLID[dst] + LID(off)
	tr.lid = lid
	deliver := -1 - int32(dst)
	for i := range tr.hops {
		tr.hops[i] = hopsUnresolved
	}
	tr.order = tr.order[:0]
	for _, root := range tr.roots {
		if tr.hops[root] != hopsUnresolved {
			continue
		}
		stack := append(tr.stack[:0], root)
		tr.hops[root] = hopsOpen
		// below is the hop count past the top of the stack: the resolved
		// switch its entry leads to, -1 when the entry delivers (so the top
		// is 0 hops away), or hopsFailed.
		below := int(hopsFailed)
	follow:
		for {
			si := stack[len(stack)-1]
			c := lft[si][lid]
			if c == NoChannel {
				break
			}
			ni := tr.head[c]
			if ni < 0 {
				if ni == deliver {
					tr.up[si], below = -1, -1
				}
				break // a down link, or delivery to another terminal
			}
			tr.up[si] = ni
			switch h := tr.hops[ni]; h {
			case hopsUnresolved:
				tr.hops[ni] = hopsOpen
				stack = append(stack, ni)
			case hopsOpen, hopsFailed: // a loop, or a failing chain
				break follow
			default:
				below = int(h)
				break follow
			}
		}
		for k := len(stack) - 1; k >= 0; k-- {
			si := stack[k]
			if below != int(hopsFailed) {
				if below++; below > MaxHops {
					below = int(hopsFailed)
				}
			}
			tr.hops[si] = int8(below)
			if below >= 0 {
				tr.order = append(tr.order, si)
			}
		}
		tr.stack = stack
	}
}

// fold adds the last LID's keys to load: each resolved switch passes its
// source terminals, and what reaches it from upstream, to its next-hop
// channel and on to its next switch, farthest switch first, as SPTree.fold
// adds path weights.
func (tr *lidTrees) fold(load []int) {
	for _, si := range tr.order {
		tr.sum[si] = 0
	}
	for _, si := range tr.roots {
		if tr.hops[si] >= 0 {
			tr.sum[si] = tr.pairs(si)
		}
	}
	lft := tr.t.lft
	for k := len(tr.order) - 1; k >= 0; k-- {
		si := tr.order[k]
		if s, up := tr.sum[si], tr.up[si]; s != 0 && up >= 0 {
			load[lft[si][tr.lid]] += s
			tr.sum[up] += s
		}
	}
}

// A rise mask covers the first maskLanes lanes (riseMasks), more than the
// engines use on the paper planes (three at most); the lanes past it are
// checked by walking the path (Tables.chainRises).
const (
	maskLanes = 7
	allLanes  = 1<<maskLanes - 1
)

// riseMasks sets mask[si] of each switch resolved toward the last LID: bit
// vl < maskLanes is set when the path's switch channels from si rise in
// rank on lane vl of the certificate. A path of at most one switch channel
// has no dependency and rises on every lane, and a lane the certificate
// does not rank ranks every channel -1, so no dependency rises on it.
func (tr *lidTrees) riseMasks(mask []uint8) {
	t := tr.t
	ranks := t.laneRank[:min(len(t.laneRank), maskLanes)]
	for _, si := range tr.order {
		if tr.hops[si] < 2 {
			mask[si] = allLanes
			continue
		}
		up := tr.up[si]
		c1, c2 := t.lft[si][tr.lid], t.lft[up][tr.lid]
		m := mask[up]
		for vl, rank := range ranks {
			if rankOf(rank, c1) >= rankOf(rank, c2) {
				m &^= 1 << vl
			}
		}
		mask[si] = m &^ (allLanes &^ (1<<len(ranks) - 1))
	}
}

// rankOf is channel c's rank in a lane's certificate, -1 past its end.
func rankOf(rank []int32, c topo.ChannelID) int32 {
	if int(c) < len(rank) {
		return rank[c]
	}
	return -1
}

// chainRises reports whether the switch channels of the path from switch
// si toward lid, which resolves, rise in rank on lane vl: the check of
// lanes past the rise masks.
func (t *Tables) chainRises(si int, lid LID, vl uint8) bool {
	var rank []int32
	if int(vl) < len(t.laneRank) {
		rank = t.laneRank[vl]
	}
	prev := int32(math.MinInt32) // below every rank: the first channel has no dependency
	for {
		c := t.lft[si][lid]
		if si = t.G.SwitchIndex(t.G.ChannelTo(c)); si < 0 {
			return true // the delivery channel
		}
		r := rankOf(rank, c)
		if r <= prev {
			return false
		}
		prev = r
	}
}

// lanes builds the CDGs of vls lanes from every LID's tree, resolving each
// LID again, and stops at the first cyclic lane: the check of tables whose
// paths broke their certificate.
func (tr *lidTrees) lanes(vls int) *laneCDGs {
	lanes := newLaneCDGs(tr.t.G, vls)
	used := make([]uint64, len(tr.up))
	for di := range tr.t.BaseLID {
		for off := 0; off < 1<<tr.t.LMC; off++ {
			if lanes.cyclic {
				return lanes
			}
			tr.resolve(di, off)
			tr.offer(lanes, used)
		}
	}
	return lanes
}

// offer offers the last LID's tree to lanes: each resolved switch's one
// dependency (its channel and its next switch's) goes once to each lane
// that the keys through the switch use, folded up the tree as lane sets in
// used, 64 lanes at a time. Pairs whose SL lies beyond the lanes are
// skipped: Validate flags them. A lane's CDG rejects some dependency
// exactly when the lane's union of dependencies is cyclic, in any order,
// so offering every pair's path gives the same verdict. Once a lane is
// cyclic the verdict is in, and offer does nothing.
func (tr *lidTrees) offer(lanes *laneCDGs, used []uint64) {
	t := tr.t
	slots := len(t.BaseLID) << t.LMC
	var dep [2]topo.ChannelID
	for base := 0; base < len(lanes.lanes) && !lanes.cyclic; base += 64 {
		for _, si := range tr.order {
			used[si] = 0
		}
		for _, si := range tr.roots {
			if tr.hops[si] < 0 {
				continue
			}
			for _, i := range tr.members[tr.start[si]:tr.start[si+1]] {
				vl := 0
				if t.sl != nil {
					vl = int(t.sl[int(i)*slots+tr.slot])
				}
				if int(i) != tr.dst && vl >= base && vl < min(base+64, len(lanes.lanes)) {
					used[si] |= 1 << (vl - base)
				}
			}
		}
		for k := len(tr.order) - 1; k >= 0; k-- {
			si := tr.order[k]
			u, up := used[si], tr.up[si]
			if u == 0 || up < 0 {
				continue
			}
			used[up] |= u
			if tr.hops[up] == 0 {
				continue // the next switch delivers: no dependency
			}
			dep = [2]topo.ChannelID{t.lft[si][tr.lid], t.lft[up][tr.lid]}
			for ; u != 0; u &= u - 1 {
				lanes.offer(uint8(base+bits.TrailingZeros64(u)), dep[:])
			}
			if lanes.cyclic {
				return
			}
		}
	}
}

package route

import (
	"math/bits"

	"github.com/hpcsim/t2hx/internal/topo"
)

// FTree implements OpenSM's ftree routing for XGFTs, which on healthy
// fabrics behaves like Zahavi's D-Mod-K: packets ascend toward the lowest
// common ancestor level, choosing among redundant parents by a
// deterministic digit of the destination index (contention-free for shift
// permutations), then descend along the unique down path. Missing links are
// bypassed by the cheapest valley-free (up*down*) detour, so the result
// stays loop- and deadlock-free on degraded fabrics — though, as the paper
// observes, less balanced than SSSP there. The tables carry the
// valley-free rank as their lane certificate (valleyFreeRank).
//
// Which switches can descend to a destination, and at what cost every
// switch reaches it, depend on the destination only through its leaf
// switch: the terminals of a leaf share its ancestors and their down
// digits. So both are computed once per leaf, with each switch's set of
// minimal-cost live parents; each terminal then takes, at every switch off
// the descent, the first minimal parent at or after its D-Mod-K digit in
// rotation order, which is the parent a scan of the parents from that
// digit keeps when it replaces its choice only on a strictly lower cost.
func FTree(ft *topo.FatTree, lmc uint8) (*Tables, error) {
	t, err := newTables(ft.Graph, "ftree", lmc, nil)
	if err != nil {
		return nil, err
	}
	g := ft.Graph
	span := 1 << lmc
	terms := g.Terminals()
	sws := g.Switches()

	// Mixed-radix digit strides over the parent counts W: at a level-lv
	// switch the D-Mod-K parent digit is (dstIdx / stride[lv]) % W[lv].
	stride := make([]int, ft.Height+1)
	stride[1] = 1
	for lv := 1; lv < ft.Height; lv++ {
		stride[lv+1] = stride[lv] * ft.Cfg.W[lv]
	}
	// Parent sets are bitsets of words uint64s per switch.
	maxW := 1
	for _, w := range ft.Cfg.W {
		maxW = max(maxW, w)
	}
	words := (maxW + 63) / 64

	// Switches grouped by level once, each switch's level, live up
	// channels and parents by parent digit (NoChannel and -1 where the
	// link is missing or down), each switch's attached terminals, and flat
	// per-leaf scratch indexed by the graph's dense switch index, reset
	// between leaves.
	nsw := g.NumSwitches()
	byLevel := make([][]topo.NodeID, ft.Height+1)
	level := make([]int, nsw)
	upCh := make([]topo.ChannelID, nsw*maxW)
	upTo := make([]int32, nsw*maxW)
	for si, s := range sws {
		lv := ft.Level(s)
		byLevel[lv] = append(byLevel[lv], s)
		level[si] = lv
		for y := 0; y < maxW; y++ {
			upCh[si*maxW+y], upTo[si*maxW+y] = NoChannel, -1
			if l := ft.UpLink(s, y); l != nil && !l.Down {
				upCh[si*maxW+y], upTo[si*maxW+y] = l.Channel(s), int32(g.SwitchIndex(l.Other(s)))
			}
		}
	}
	leafTerms := make([][]topo.NodeID, nsw)
	for _, tm := range terms {
		// A detached terminal's LIDs stay unprogrammed (reported as
		// unreachable by Validate) rather than failing the sweep.
		if sw := g.SwitchOf(tm); sw >= 0 {
			si := g.SwitchIndex(sw)
			leafTerms[si] = append(leafTerms[si], tm)
		}
	}
	desc := make([]bool, nsw)
	cost := make([]int32, nsw)
	minUp := make([]uint64, nsw*words)
	// next is a terminal's LFT column: the descent channels and the
	// unreachable switches are the leaf's, and each switch in choose takes
	// the terminal's parent.
	next := make([]topo.ChannelID, nsw)
	var choose []int32

	for li, leafs := range leafTerms {
		if len(leafs) == 0 {
			continue
		}
		dstSw := sws[li]
		// Above the leaf, ancestry and down digits read only the digits
		// that the leaf's terminals share, so any of them stands for all.
		rep := leafs[0]
		for i := 0; i < nsw; i++ {
			desc[i], cost[i], next[i] = false, -1, NoChannel
		}
		clear(minUp)
		choose = choose[:0]

		// Phase 1: descent feasibility. desc[s] is true when the unique
		// ancestor down-chain from s to the leaf is fully live.
		desc[li] = true
		// Process ancestors level by level above the leaf.
		for lv := 2; lv <= ft.Height; lv++ {
			for _, s := range byLevel[lv] {
				if !ft.Ancestors(s, rep) {
					continue
				}
				l := ft.DownLink(s, ft.DownDigit(s, rep))
				if l == nil || l.Down {
					continue
				}
				if desc[g.SwitchIndex(l.Other(s))] {
					si := g.SwitchIndex(s)
					desc[si] = true
					next[si] = l.Channel(s)
				}
			}
		}

		// Phase 2: cost from every switch, top level first (up moves only
		// increase level, so dependencies point upward), and the live
		// parents at that cost.
		for lv := ft.Height; lv >= 1; lv-- {
			for _, s := range byLevel[lv] {
				si := g.SwitchIndex(s)
				if desc[si] {
					cost[si] = int32(lv - 1) // hops down to the leaf
					continue
				}
				if lv == ft.Height {
					continue // top switch without descent: unreachable
				}
				set := minUp[si*words : (si+1)*words]
				for y, p := range upTo[si*maxW : si*maxW+ft.Cfg.W[lv]] {
					if p < 0 || cost[p] < 0 {
						continue
					}
					switch c := cost[p] + 1; {
					case cost[si] < 0 || c < cost[si]:
						cost[si] = c
						clear(set)
					case c > cost[si]:
						continue
					}
					set[y/64] |= 1 << (y % 64)
				}
				if cost[si] >= 0 {
					choose = append(choose, int32(si))
				}
			}
		}

		for _, dst := range leafs {
			dstIdx := ft.TermIndex(dst)
			for _, si := range choose {
				lv := level[si]
				prefer := (dstIdx / stride[lv]) % ft.Cfg.W[lv]
				next[si] = upCh[int(si)*maxW+firstFrom(minUp[int(si)*words:int(si+1)*words], prefer)]
			}
			di := g.TerminalIndex(dst)
			for off := 0; off < span; off++ {
				lid := t.BaseLID[di] + LID(off)
				for si, c := range next {
					if c != NoChannel {
						t.lft[si][lid] = c
					}
				}
				// Delivery hop.
				for _, l := range g.Nodes[dst].Ports {
					if l != nil && !l.Down && l.Other(dst) == dstSw {
						t.SetNextHop(dstSw, lid, l.Channel(dstSw))
					}
				}
			}
		}
	}
	t.laneRank = [][]int32{valleyFreeRank(ft)}
	t.Freeze()
	return t, nil
}

// firstFrom returns the first member of the bitset set at or after y in
// rotation order: y, y+1, ..., then from 0. set must not be empty, and
// holds no member past the parent count the rotation wraps at.
func firstFrom(set []uint64, y int) int {
	for {
		if w := set[y/64] >> (y % 64); w != 0 {
			return y + bits.TrailingZeros64(w)
		}
		if y = (y/64 + 1) * 64; y/64 == len(set) {
			y = 0
		}
	}
}

// valleyFreeRank ranks the switch channels of ft for the lane certificate
// (Tables.laneRank): up channels by the level they leave, then down
// channels by falling level. Every up*down* path climbs in rank, so this
// one order proves FTree's single lane acyclic.
func valleyFreeRank(ft *topo.FatTree) []int32 {
	g := ft.Graph
	top := int32(2 * ft.Height)
	rank := make([]int32, 2*len(g.Links))
	for _, l := range g.Links {
		lo, hi := l.A, l.B
		if ft.Level(lo) > ft.Level(hi) {
			lo, hi = hi, lo
		}
		rank[l.Channel(lo)] = int32(ft.Level(lo))
		rank[l.Channel(hi)] = top - int32(ft.Level(hi))
	}
	return rank
}

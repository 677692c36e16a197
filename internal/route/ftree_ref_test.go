package route

import (
	"math"

	"github.com/hpcsim/t2hx/internal/topo"
)

// refFTree is FTree as it was before it computed each leaf's descent and
// costs once: it reruns both phases for every destination terminal and
// picks each switch's parent by scanning the parents from the terminal's
// D-Mod-K digit. TestFTreeMatchesReference and FuzzFTree hold FTree to it.
func refFTree(ft *topo.FatTree, lmc uint8) (*Tables, error) {
	t, err := newTables(ft.Graph, "ftree", lmc, nil)
	if err != nil {
		return nil, err
	}
	g := ft.Graph
	span := 1 << lmc
	terms := g.Terminals()

	stride := make([]int, ft.Height+1)
	stride[1] = 1
	for lv := 1; lv < ft.Height; lv++ {
		stride[lv+1] = stride[lv] * ft.Cfg.W[lv]
	}
	byLevel := make([][]topo.NodeID, ft.Height+1)
	for _, s := range ft.Switches() {
		byLevel[ft.Level(s)] = append(byLevel[ft.Level(s)], s)
	}
	nsw := g.NumSwitches()
	desc := make([]bool, nsw)
	descLink := make([]*topo.Link, nsw)
	cost := make([]float64, nsw)
	next := make([]topo.ChannelID, nsw)

	for di, dst := range terms {
		dstSw := g.SwitchOf(dst)
		if dstSw < 0 {
			continue
		}
		dstIdx := ft.TermIndex(dst)
		for i := 0; i < nsw; i++ {
			desc[i], descLink[i] = false, nil
			cost[i], next[i] = -1, NoChannel
		}
		desc[g.SwitchIndex(dstSw)] = true
		for lv := 2; lv <= ft.Height; lv++ {
			for _, s := range byLevel[lv] {
				if !ft.Ancestors(s, dst) {
					continue
				}
				l := ft.DownLink(s, ft.DownDigit(s, dst))
				if l == nil || l.Down {
					continue
				}
				if desc[g.SwitchIndex(l.Other(s))] {
					si := g.SwitchIndex(s)
					desc[si] = true
					descLink[si] = l
				}
			}
		}
		for lv := ft.Height; lv >= 1; lv-- {
			for _, s := range byLevel[lv] {
				si := g.SwitchIndex(s)
				if desc[si] {
					cost[si] = float64(lv - 1)
					if s != dstSw {
						next[si] = descLink[si].Channel(s)
					}
					continue
				}
				if lv == ft.Height {
					continue
				}
				best := math.Inf(1)
				bestY := -1
				prefer := (dstIdx / stride[lv]) % ft.Cfg.W[lv]
				for dy := 0; dy < ft.Cfg.W[lv]; dy++ {
					y := (prefer + dy) % ft.Cfg.W[lv]
					l := ft.UpLink(s, y)
					if l == nil || l.Down {
						continue
					}
					c := cost[g.SwitchIndex(l.Other(s))]
					if c < 0 {
						continue
					}
					if c+1 < best {
						best = c + 1
						bestY = y
					}
				}
				if bestY < 0 {
					continue
				}
				cost[si] = best
				next[si] = ft.UpLink(s, bestY).Channel(s)
			}
		}
		for off := 0; off < span; off++ {
			lid := t.BaseLID[di] + LID(off)
			for si, c := range next {
				if c != NoChannel {
					t.SetNextHop(g.Switches()[si], lid, c)
				}
			}
			for _, l := range g.Nodes[dst].Ports {
				if l != nil && !l.Down && l.Other(dst) == dstSw {
					t.SetNextHop(dstSw, lid, l.Channel(dstSw))
				}
			}
		}
	}
	t.laneRank = [][]int32{valleyFreeRank(ft)}
	t.Freeze()
	return t, nil
}

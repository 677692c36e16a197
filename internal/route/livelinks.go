package route

import (
	"github.com/hpcsim/t2hx/internal/topo"
)

// liveLinks indexes the live switch-to-switch channels of a graph as its
// Down flags stand when the index is built. Engines build one per call and
// drop it on return: runtime faults flip Down between builds, so the index
// is never kept on Tables or the graph.
//
// Switch si's entries are start[si]:start[si+1], in port order: entry i is
// the channel ch[i] leaving si toward switch index to[i], and ch[i]^1 is
// the same link in the other direction. A port has an entry when it is
// connected, its link is not Down and its far end is a switch. Consumers
// that break ties by visiting order, such as Dijkstra's push sequence,
// rely on the port order.
type liveLinks struct {
	start []int32
	ch    []topo.ChannelID
	to    []int32
}

func newLiveLinks(g *topo.Graph) *liveLinks {
	sws := g.Switches()
	ll := &liveLinks{start: make([]int32, len(sws)+1)}
	for si, s := range sws {
		for _, l := range g.Nodes[s].Ports {
			if l == nil || l.Down {
				continue
			}
			oi := g.SwitchIndex(l.Other(s))
			if oi < 0 {
				continue
			}
			ll.ch = append(ll.ch, l.Channel(s))
			ll.to = append(ll.to, int32(oi))
		}
		ll.start[si+1] = int32(len(ll.ch))
	}
	return ll
}

// of returns switch si's live links: channel ch[i] leads to switch index
// to[i].
func (ll *liveLinks) of(si int) (ch []topo.ChannelID, to []int32) {
	a, b := ll.start[si], ll.start[si+1]
	return ll.ch[a:b], ll.to[a:b]
}

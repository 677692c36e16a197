// Package topo models interconnection-network topologies as port graphs:
// switches and terminals (compute-node HCA ports) joined by bidirectional
// links with bandwidth and latency. It provides builders for the two
// topologies compared by Domke et al. (SC '19) — k-ary n-trees / XGFTs
// ("Fat-Trees") and HyperX lattices — plus the paper's exact 672-node
// deployments, link degradation, and structural metrics (diameter,
// bisection).
package topo

import (
	"fmt"
	"sync/atomic"

	"github.com/hpcsim/t2hx/internal/sim"
)

// NodeID identifies a node (switch or terminal) within a Graph.
type NodeID int32

// LinkID identifies a bidirectional link within a Graph.
type LinkID int32

// ChannelID identifies one direction of a link: 2*LinkID for A→B and
// 2*LinkID+1 for B→A. Flow simulation and channel-dependency analysis
// operate on channels.
type ChannelID int32

// Kind distinguishes switches from terminals.
type Kind uint8

const (
	// Switch is a crossbar forwarding element with a forwarding table.
	Switch Kind = iota
	// Terminal is a compute-node network port (an InfiniBand HCA port).
	Terminal
)

func (k Kind) String() string {
	if k == Switch {
		return "switch"
	}
	return "terminal"
}

// Node is a switch or terminal. Ports[i] is the link attached to local port
// i, or nil for an unconnected port.
type Node struct {
	ID    NodeID
	Kind  Kind
	Label string
	// Coord carries topology coordinates: for HyperX switches the lattice
	// position; for tree switches (level, index...); for terminals the
	// coordinates of the attached switch plus the local index.
	Coord []int
	Ports []*Link
}

// Link is a full-duplex cable between two nodes. Each direction has the
// same Bandwidth (bytes/second) and Latency.
type Link struct {
	ID           LinkID
	A, B         NodeID
	APort, BPort int
	Bandwidth    float64 // bytes per second, per direction
	Latency      sim.Duration
	Down         bool // degraded/unplugged (the paper's broken AOCs)
}

// Channel returns the directed channel ID leaving from node `from` over this
// link. It panics if from is not an endpoint.
func (l *Link) Channel(from NodeID) ChannelID {
	switch from {
	case l.A:
		return ChannelID(2 * l.ID)
	case l.B:
		return ChannelID(2*l.ID + 1)
	}
	panic(fmt.Sprintf("topo: node %d is not an endpoint of link %d", from, l.ID))
}

// Other returns the endpoint opposite n.
func (l *Link) Other(n NodeID) NodeID {
	if n == l.A {
		return l.B
	}
	if n == l.B {
		return l.A
	}
	panic(fmt.Sprintf("topo: node %d is not an endpoint of link %d", n, l.ID))
}

// Graph is an interconnection network.
type Graph struct {
	Name      string
	Nodes     []*Node
	Links     []*Link
	terminals []NodeID // cached, in creation order
	switches  []NodeID
	// kindIdx[n] is the node's dense index within its kind slice
	// (terminals or switches), so routing state can live in flat slices
	// instead of map[NodeID] lookups.
	kindIdx []int32
	// diameter memoises Diameter for one link state; adding a node or a
	// link clears it.
	diameter atomic.Pointer[diameterMemo]
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddNode appends a node of the given kind and returns it.
func (g *Graph) AddNode(kind Kind, label string, coord ...int) *Node {
	n := &Node{ID: NodeID(len(g.Nodes)), Kind: kind, Label: label, Coord: coord}
	g.Nodes = append(g.Nodes, n)
	g.diameter.Store(nil)
	if kind == Terminal {
		g.kindIdx = append(g.kindIdx, int32(len(g.terminals)))
		g.terminals = append(g.terminals, n.ID)
	} else {
		g.kindIdx = append(g.kindIdx, int32(len(g.switches)))
		g.switches = append(g.switches, n.ID)
	}
	return n
}

// Connect joins a and b with a new link, appending a port on each side.
func (g *Graph) Connect(a, b NodeID, bandwidth float64, latency sim.Duration) *Link {
	if a == b {
		panic("topo: self-link")
	}
	na, nb := g.Nodes[a], g.Nodes[b]
	l := &Link{
		ID: LinkID(len(g.Links)), A: a, B: b,
		APort: len(na.Ports), BPort: len(nb.Ports),
		Bandwidth: bandwidth, Latency: latency,
	}
	g.Links = append(g.Links, l)
	na.Ports = append(na.Ports, l)
	nb.Ports = append(nb.Ports, l)
	g.diameter.Store(nil)
	return l
}

// Terminals returns the IDs of all terminals in creation order.
func (g *Graph) Terminals() []NodeID { return g.terminals }

// Switches returns the IDs of all switches in creation order.
func (g *Graph) Switches() []NodeID { return g.switches }

// NumTerminals reports the number of terminals.
func (g *Graph) NumTerminals() int { return len(g.terminals) }

// NumSwitches reports the number of switches.
func (g *Graph) NumSwitches() int { return len(g.switches) }

// SwitchIndex returns the dense index of switch n in Switches() order, or
// -1 when n is not a switch. The index is stable for the graph's lifetime,
// making it the canonical key for flat per-switch routing state.
func (g *Graph) SwitchIndex(n NodeID) int {
	if g.Nodes[n].Kind != Switch {
		return -1
	}
	return int(g.kindIdx[n])
}

// TerminalIndex returns the dense index of terminal n in Terminals()
// order, or -1 when n is not a terminal.
func (g *Graph) TerminalIndex(n NodeID) int {
	if g.Nodes[n].Kind != Terminal {
		return -1
	}
	return int(g.kindIdx[n])
}

// Link returns the link for a channel ID.
func (g *Graph) Link(c ChannelID) *Link { return g.Links[c/2] }

// ChannelFrom reports the source node of a directed channel.
func (g *Graph) ChannelFrom(c ChannelID) NodeID {
	l := g.Links[c/2]
	if c%2 == 0 {
		return l.A
	}
	return l.B
}

// ChannelTo reports the destination node of a directed channel.
func (g *Graph) ChannelTo(c ChannelID) NodeID {
	l := g.Links[c/2]
	if c%2 == 0 {
		return l.B
	}
	return l.A
}

// UpLinks returns the live links attached to n.
func (g *Graph) UpLinks(n NodeID) []*Link {
	var out []*Link
	for _, l := range g.Nodes[n].Ports {
		if l != nil && !l.Down {
			out = append(out, l)
		}
	}
	return out
}

// SwitchOf returns the switch a terminal is attached to; terminals have
// exactly one live link by construction. It returns -1 if the terminal is
// isolated (e.g. its link was degraded).
func (g *Graph) SwitchOf(t NodeID) NodeID {
	n := g.Nodes[t]
	if n.Kind != Terminal {
		panic(fmt.Sprintf("topo: SwitchOf(%d): not a terminal", t))
	}
	for _, l := range n.Ports {
		if l != nil && !l.Down {
			return l.Other(t)
		}
	}
	return -1
}

// TerminalsOf returns the terminals attached to switch s.
func (g *Graph) TerminalsOf(s NodeID) []NodeID {
	var out []NodeID
	for _, l := range g.Nodes[s].Ports {
		if l == nil || l.Down {
			continue
		}
		o := l.Other(s)
		if g.Nodes[o].Kind == Terminal {
			out = append(out, o)
		}
	}
	return out
}

// LiveSwitchLinks returns all non-degraded switch-to-switch links.
func (g *Graph) LiveSwitchLinks() []*Link {
	var out []*Link
	for _, l := range g.Links {
		if l.Down {
			continue
		}
		if g.Nodes[l.A].Kind == Switch && g.Nodes[l.B].Kind == Switch {
			out = append(out, l)
		}
	}
	return out
}

// Validate performs structural sanity checks and returns the first problem
// found, or nil.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		if n.Kind == Terminal {
			live := 0
			for _, l := range n.Ports {
				if l != nil && !l.Down {
					live++
				}
			}
			if live > 1 {
				return fmt.Errorf("terminal %s has %d live links, want <= 1", n.Label, live)
			}
		}
		for pi, l := range n.Ports {
			if l == nil {
				continue
			}
			if l.A != n.ID && l.B != n.ID {
				return fmt.Errorf("node %s port %d references foreign link %d", n.Label, pi, l.ID)
			}
		}
	}
	for _, l := range g.Links {
		if g.Nodes[l.A].Ports[l.APort] != l || g.Nodes[l.B].Ports[l.BPort] != l {
			return fmt.Errorf("link %d port back-references broken", l.ID)
		}
		if l.Bandwidth <= 0 {
			return fmt.Errorf("link %d has non-positive bandwidth", l.ID)
		}
	}
	return nil
}

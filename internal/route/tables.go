// Package route implements InfiniBand-style destination-based routing for
// the topologies in internal/topo: linear forwarding tables (LFTs) keyed by
// destination LID, LMC-based multi-LID addressing, and the routing engines
// the paper evaluates — ftree (D-Mod-K), SSSP, DFSSSP (deadlock-free via
// virtual-lane layering) and Up*/Down*. The paper's own PARX engine lives
// in internal/core and builds on the primitives here.
package route

import (
	"errors"
	"fmt"

	"github.com/hpcsim/t2hx/internal/topo"
)

// ErrNoRoute marks Path failures meaning "the tables do not serve this
// pair" — a missing LFT entry or a detached source terminal. Fault-tolerant
// engines (HXMin) leave such pairs unprogrammed by design, so callers walk
// all pairs with errors.Is(err, ErrNoRoute) to separate graceful
// degradation from structural anomalies (loops, misdelivery), which never
// wrap it.
var ErrNoRoute = errors.New("no route")

// ErrLIDSpace marks table builds refused because the fabric has more
// terminals than 16-bit LIDs can address at the requested LMC: at most
// 65536>>lmc - 1 aligned, non-zero blocks of 2^lmc LIDs fit.
var ErrLIDSpace = errors.New("LID space exhausted")

// LID is an InfiniBand local identifier: the destination address forwarding
// tables are keyed by. With LMC = l, a terminal port owns 2^l consecutive
// LIDs, each routed independently by the subnet manager.
type LID uint16

// NoChannel marks an absent LFT entry.
const NoChannel topo.ChannelID = -1

// MaxLMC bounds the supported LID mask control (the IB spec allows 7; PARX
// needs 2).
const MaxLMC = 4

// LIDPolicy assigns base LIDs to terminals. It receives the terminal's
// index in graph order and its NodeID, and must return 2^lmc-aligned,
// non-overlapping base LIDs. LID 0 is reserved (invalid in IB).
type LIDPolicy func(termIdx int, term topo.NodeID) LID

// SequentialLIDs is the default policy: terminal i gets base LID
// (i+1)*2^lmc. Tables refuse more terminals than fit below 65536
// (ErrLIDSpace), so the base LIDs never wrap.
func SequentialLIDs(lmc uint8) LIDPolicy {
	span := LID(1) << lmc
	return func(termIdx int, _ topo.NodeID) LID {
		return span * LID(termIdx+1)
	}
}

// Tables is a complete routing configuration: LID assignment, per-switch
// linear forwarding tables, the virtual-lane (service-level) assignment
// for deadlock avoidance and, from engines that prove their lanes acyclic,
// the proof: one rank per channel and lane (laneRank).
//
// Tables are mutable only while an engine is building them. Every engine
// calls Freeze before returning, after which SetNextHop/SetSL panic; a
// frozen Tables is therefore safe to share across goroutines and to cache
// (see exp.TableCache). Terminal and switch indexes come from the graph's
// dense kind indexes (topo.Graph.TerminalIndex / SwitchIndex), so lookups
// are flat slice reads with no map state.
type Tables struct {
	G      *topo.Graph
	Engine string
	LMC    uint8

	// BaseLID[termIdx] is the base LID of terminal termIdx (graph terminal
	// order).
	BaseLID []LID
	// maxLID is the highest assigned LID.
	maxLID LID

	// lidOwner[lid] is the owning terminal index, or -1.
	lidOwner []int32

	// lft[swIdx][lid] is the outgoing channel from that switch toward lid,
	// or NoChannel.
	lft [][]topo.ChannelID

	// sl[srcTermIdx*numLIDSlots + dstSlot] is the virtual lane of the path
	// from srcTerm to dst LID, where dstSlot = dstTermIdx<<lmc | lidOffset.
	// nil when the engine does not use VLs (single-lane routing).
	sl    []uint8
	NumVL int

	// laneRank certifies that every lane's channel dependency graph is
	// acyclic: on lane vl, every dependency of a routed path — two
	// consecutive switch-to-switch channels (c1, c2) — has
	// laneRank[vl][c1] < laneRank[vl][c2]. A channel past the end of a
	// lane's ranks ranks -1. The lane pass stores each lane's
	// Pearce-Kelly order here, and FTree its valley-free rank. Validate
	// checks the ranks instead of building the lanes' CDGs, and builds
	// them after all when a dependency breaks the order. nil when the
	// engine keeps no certificate.
	laneRank [][]int32

	frozen bool
}

// newTables allocates tables for g with the given LID policy. It returns an
// error wrapping ErrLIDSpace when g has more terminals than the LID space
// holds at lmc; a policy returning unaligned or duplicate LIDs panics.
func newTables(g *topo.Graph, engine string, lmc uint8, policy LIDPolicy) (*Tables, error) {
	if lmc > MaxLMC {
		panic("route: LMC too large")
	}
	terms := g.Terminals()
	if most := 65536>>lmc - 1; len(terms) > most {
		return nil, fmt.Errorf("route: %s: %d terminals exceed the %d that LMC %d can address: %w",
			engine, len(terms), most, lmc, ErrLIDSpace)
	}
	if policy == nil {
		policy = SequentialLIDs(lmc)
	}
	t := &Tables{
		G:       g,
		Engine:  engine,
		LMC:     lmc,
		BaseLID: make([]LID, len(terms)),
	}
	span := LID(1) << lmc
	for i, tm := range terms {
		base := policy(i, tm)
		if base == 0 || base%span != 0 && lmc > 0 {
			panic(fmt.Sprintf("route: LID policy returned unaligned base LID %d for lmc=%d", base, lmc))
		}
		t.BaseLID[i] = base
		if base+span-1 > t.maxLID {
			t.maxLID = base + span - 1
		}
	}
	t.lidOwner = make([]int32, int(t.maxLID)+1)
	for i := range t.lidOwner {
		t.lidOwner[i] = -1
	}
	for i, base := range t.BaseLID {
		for o := LID(0); o < span; o++ {
			if t.lidOwner[base+o] != -1 {
				panic(fmt.Sprintf("route: LID %d assigned twice", base+o))
			}
			t.lidOwner[base+o] = int32(i)
		}
	}
	t.lft = make([][]topo.ChannelID, g.NumSwitches())
	for i := range t.lft {
		row := make([]topo.ChannelID, int(t.maxLID)+1)
		for j := range row {
			row[j] = NoChannel
		}
		t.lft[i] = row
	}
	return t, nil
}

// TermIndex returns the terminal index of a terminal node.
func (t *Tables) TermIndex(n topo.NodeID) int { return t.G.TerminalIndex(n) }

// TermByIndex returns the terminal NodeID at index i.
func (t *Tables) TermByIndex(i int) topo.NodeID { return t.G.Terminals()[i] }

// NumTerminals reports the number of addressed terminals.
func (t *Tables) NumTerminals() int { return len(t.BaseLID) }

// MaxLID returns the highest assigned LID.
func (t *Tables) MaxLID() LID { return t.maxLID }

// LIDFor returns the lidOffset-th LID of a terminal.
func (t *Tables) LIDFor(term topo.NodeID, lidOffset uint8) LID {
	if lidOffset >= 1<<t.LMC {
		panic("route: lid offset beyond LMC range")
	}
	return t.BaseLID[t.G.TerminalIndex(term)] + LID(lidOffset)
}

// OwnerOf returns the terminal owning a LID, or -1.
func (t *Tables) OwnerOf(lid LID) int {
	if int(lid) >= len(t.lidOwner) {
		return -1
	}
	return int(t.lidOwner[lid])
}

// SetNextHop installs the LFT entry of switch sw toward lid. It panics on
// frozen tables: engines finish all writes before Freeze, and shared cached
// tables must never be modified.
func (t *Tables) SetNextHop(sw topo.NodeID, lid LID, c topo.ChannelID) {
	if t.frozen {
		panic("route: SetNextHop on frozen Tables")
	}
	t.lft[t.G.SwitchIndex(sw)][lid] = c
}

// NextHop returns the outgoing channel of switch sw toward lid, or
// NoChannel.
func (t *Tables) NextHop(sw topo.NodeID, lid LID) topo.ChannelID {
	return t.lft[t.G.SwitchIndex(sw)][lid]
}

// slSlot maps (src terminal index, dst LID) to an index into sl.
func (t *Tables) slSlot(srcIdx int, lid LID) int {
	dstIdx := t.lidOwner[lid]
	off := int(lid - t.BaseLID[dstIdx])
	slots := t.NumTerminals() << t.LMC
	return srcIdx*slots + (int(dstIdx)<<t.LMC | off)
}

// SetSL records the virtual lane for the (src, dst LID) path. It panics on
// frozen tables, like SetNextHop.
func (t *Tables) SetSL(src topo.NodeID, lid LID, vl uint8) {
	if t.frozen {
		panic("route: SetSL on frozen Tables")
	}
	if t.sl == nil {
		n := t.NumTerminals()
		t.sl = make([]uint8, n*(n<<t.LMC))
	}
	t.sl[t.slSlot(t.G.TerminalIndex(src), lid)] = vl
	if int(vl)+1 > t.NumVL {
		t.NumVL = int(vl) + 1
	}
}

// SL returns the virtual lane for the (src, dst LID) path; 0 when the
// engine assigned none.
func (t *Tables) SL(src topo.NodeID, lid LID) uint8 {
	if t.sl == nil {
		return 0
	}
	return t.sl[t.slSlot(t.G.TerminalIndex(src), lid)]
}

// Freeze marks the tables read-only; subsequent SetNextHop/SetSL calls
// panic. Every routing engine freezes its result before returning, which
// is what makes sharing one Tables across sweep workers race-free.
func (t *Tables) Freeze() { t.frozen = true }

// Frozen reports whether the tables are read-only.
func (t *Tables) Frozen() bool { return t.frozen }

// Rebind returns a shallow copy of frozen tables with G swapped to another
// structurally identical graph. The LFT/SL slices are shared (read-only),
// but the copy's graph pointer matches the caller's fabric so runtime fault
// injection on one machine's graph never leaks into another's tables. It
// panics when t is not frozen or g has a different shape.
func (t *Tables) Rebind(g *topo.Graph) *Tables {
	if !t.frozen {
		panic("route: Rebind of unfrozen Tables")
	}
	if len(g.Nodes) != len(t.G.Nodes) || len(g.Links) != len(t.G.Links) ||
		g.NumSwitches() != t.G.NumSwitches() || g.NumTerminals() != t.G.NumTerminals() {
		panic("route: Rebind to structurally different graph")
	}
	nt := *t
	nt.G = g
	return &nt
}

// MaxHops bounds LFT walks; anything longer indicates a forwarding loop.
const MaxHops = 64

// Path walks the forwarding tables from src terminal to the given LID and
// returns the channel sequence, including the injection and delivery
// channels. It returns an error on unreachable LIDs or forwarding loops.
func (t *Tables) Path(src topo.NodeID, lid LID) ([]topo.ChannelID, error) {
	return t.appendPath(nil, src, lid)
}

// appendPath is Path appending into buf[:0], so walks over many pairs can
// reuse one buffer. On error it returns nil.
func (t *Tables) appendPath(buf []topo.ChannelID, src topo.NodeID, lid LID) ([]topo.ChannelID, error) {
	ownerIdx := t.OwnerOf(lid)
	if ownerIdx < 0 {
		return nil, fmt.Errorf("route: LID %d unassigned", lid)
	}
	dst := t.TermByIndex(ownerIdx)
	if src == dst {
		return nil, nil
	}
	g := t.G
	path := buf[:0]
	// Injection.
	sw := g.SwitchOf(src)
	if sw < 0 {
		return nil, fmt.Errorf("route: source terminal %d detached: %w", src, ErrNoRoute)
	}
	for _, l := range g.Nodes[src].Ports {
		if l != nil && !l.Down {
			path = append(path, l.Channel(src))
			break
		}
	}
	for hops := 0; ; hops++ {
		if hops > MaxHops {
			return nil, fmt.Errorf("route: forwarding loop toward LID %d (engine %s)", lid, t.Engine)
		}
		c := t.NextHop(sw, lid)
		if c == NoChannel {
			return nil, fmt.Errorf("route: switch %s has no entry for LID %d (engine %s): %w", g.Nodes[sw].Label, lid, t.Engine, ErrNoRoute)
		}
		l := g.Link(c)
		if l.Down {
			return nil, fmt.Errorf("route: LFT of %s uses down link toward LID %d", g.Nodes[sw].Label, lid)
		}
		path = append(path, c)
		next := g.ChannelTo(c)
		if next == dst {
			return path, nil
		}
		if g.Nodes[next].Kind == topo.Terminal {
			return nil, fmt.Errorf("route: path toward LID %d delivered to wrong terminal %s", lid, g.Nodes[next].Label)
		}
		sw = next
	}
}

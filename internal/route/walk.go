package route

import (
	"errors"
	"fmt"
	"slices"

	"github.com/hpcsim/t2hx/internal/topo"
)

// Every terminal attached to a switch shares the switch-to-switch channels
// of its path toward a destination LID: Tables.Path differs between them
// only in the injection channel, which is no CDG participant and carries no
// channel load, and its errors name no source terminal once the source is
// attached. A pass over all (source terminal, destination LID) pairs
// therefore walks each (source switch, destination LID) key once and
// applies the result to the key's source terminals, cutting the Path calls
// by the number of terminals per switch.

// pathKey is one (source switch, destination LID) key of a keyWalk.
type pathKey struct {
	// lid is offset off of destination terminal dst (dstNode).
	lid     LID
	dst     int
	off     int
	dstNode topo.NodeID
	// srcs are the terminals attached to the source switch, in terminal
	// order; every one of them but dstNode walks the key, pairs in all.
	srcs  []topo.NodeID
	pairs int
	// first is the terminal index of the key's first source terminal.
	first int
	// path is Tables.Path of the first source terminal toward lid, or nil
	// with err. It is scratch, valid until the visit returns.
	path []topo.ChannelID
	err  error
}

// span is the switch-to-switch channels of k's path, which must have no
// error: Tables.Path returns the injection channel, then the switch
// channels, then the delivery channel.
func (k *pathKey) span() []topo.ChannelID { return k.path[1 : len(k.path)-1] }

// keyWalk visits the keys of a Tables in the order in which each first
// occurs in the terminal-major pair walk (source terminal, destination
// terminal, LID offset), so order-sensitive consumers — lane assignment,
// and lane CDGs that reject cyclic paths — see the pair walk's sequence
// with the repeats removed. A switch's keys first occur at its first
// attached terminal, except the keys toward that terminal, which its second
// terminal walks first. Enumerating them costs O(terminals + switches x
// LIDs), never O(terminal pairs).
type keyWalk struct {
	t *Tables
	// offsets is the number of LIDs walked per destination, from its base
	// LID; attachedDst skips destinations detached from the fabric.
	offsets     int
	attachedDst bool

	termGroups
	// srcs[start[si]:start[si+1]] are switch si's attached terminals as
	// node IDs, the srcs of its keys.
	srcs []topo.NodeID

	// head[c] is what channel c leads to (channelHeads), and inj[i] the
	// injection channel of attached terminal i: the channels Tables.Path
	// would read off the graph's links.
	head []int32
	inj  []topo.ChannelID

	buf []topo.ChannelID // path arena, reused key to key
	key pathKey
}

func newKeyWalk(t *Tables, offsets int, attachedDst bool) *keyWalk {
	g := t.G
	terms := g.Terminals()
	w := &keyWalk{
		t: t, offsets: offsets, attachedDst: attachedDst,
		termGroups: newTermGroups(g),
		head:       channelHeads(g),
		inj:        make([]topo.ChannelID, len(terms)),
	}
	w.srcs = make([]topo.NodeID, len(w.members))
	for k, i := range w.members {
		tm := terms[i]
		w.srcs[k] = tm
		for _, l := range g.Nodes[tm].Ports {
			if l != nil && !l.Down {
				w.inj[i] = l.Channel(tm)
				break
			}
		}
	}
	return w
}

// each calls visit once per key of the walk, in first-occurrence order.
func (w *keyWalk) each(visit func(k *pathKey)) {
	terms := w.t.G.Terminals()
	for i, src := range terms {
		si := w.swOf[i]
		if si < 0 {
			continue
		}
		grp := w.srcs[w.start[si]:w.start[si+1]]
		switch src {
		case grp[0]:
			for di := range terms {
				if di != i && !(w.attachedDst && w.swOf[di] < 0) {
					w.visitDst(i, grp, di, visit)
				}
			}
		case grp[1]:
			w.visitDst(i, grp, int(w.members[w.start[si]]), visit)
		}
	}
}

// visitDst visits the keys from switch group grp toward destination
// terminal di, which first occur at source terminal first.
func (w *keyWalk) visitDst(first int, grp []topo.NodeID, di int, visit func(k *pathKey)) {
	t := w.t
	k := &w.key
	k.first, k.srcs, k.dst = first, grp, di
	k.dstNode = t.G.Terminals()[di]
	k.pairs = len(grp)
	if w.swOf[di] == w.swOf[first] {
		k.pairs--
	}
	for off := 0; off < w.offsets; off++ {
		k.off = off
		k.lid = t.BaseLID[di] + LID(off)
		k.path, k.err = w.path(first, di, k.lid)
		if k.err == nil {
			w.buf = k.path
		}
		visit(k)
	}
}

// path is Tables.Path of attached terminal src toward lid, which terminal
// dst != src owns, walked through the LFTs and the channel heads alone.
// Where the walk stops short of dst it fails exactly where Path fails (a
// missing entry, a down link, delivery to another terminal, more than
// MaxHops switch channels), so it asks Path for the error.
func (w *keyWalk) path(src, dst int, lid LID) ([]topo.ChannelID, error) {
	lft := w.t.lft
	deliver := -1 - int32(dst)
	path := append(w.buf[:0], w.inj[src])
	si := w.swOf[src]
	for hops := 0; hops <= MaxHops; hops++ {
		c := lft[si][lid]
		if c == NoChannel {
			break
		}
		path = append(path, c)
		h := w.head[c]
		if h >= 0 {
			si = h
			continue
		}
		if h == deliver {
			return path, nil
		}
		break // a down link, or delivery to another terminal
	}
	return w.t.appendPath(path, w.t.G.Terminals()[src], lid)
}

// keyLanes lists in buf the lanes below n that the source terminals of k
// use, each once, in the order of their first pair. Pairs whose SL lies
// at n or beyond are not listed.
//
// Engines give all source terminals of a key one SL, so each lane receives
// its paths in pair-walk order. Hand-set SLs that differ between the
// sources of a key reach their lanes at the key's first pair, not at the
// first pair using the lane.
func (w *keyWalk) keyLanes(k *pathKey, n int, buf []uint8) []uint8 {
	t := w.t
	lanes := buf[:0]
	if t.sl == nil {
		return append(lanes, 0) // no SL table: every pair is on lane 0
	}
	for _, src := range k.srcs {
		if src == k.dstNode {
			continue
		}
		if vl := t.SL(src, k.lid); int(vl) < n && !slices.Contains(lanes, vl) {
			lanes = append(lanes, vl)
		}
	}
	return lanes
}

// laneCDGs holds one CDG per virtual lane. DeadlockMargin builds them from
// the paths of a key walk (laneCDGsOf), offering each key's path once to
// each lane its pairs use (keyLanes); Validate offers them the dependencies
// of each LID's tree (lidTrees.offer). A lane only gains edges, so a path
// it rejected once it rejects again, and a path it accepted adds nothing
// when repeated: skipping the repeats leaves every lane as the pair walk
// left it. Some AddPath fails exactly when a lane's union of paths is
// cyclic, in any order; cyclic records that. With hand-set SLs that differ
// between the sources of a key, the verdict stays the pair walk's, but a
// cyclic lane may keep another acyclic subset of its paths, and
// DeadlockMargin may then differ from the pair walk's.
type laneCDGs struct {
	lanes  []*CDG
	cyclic bool
	used   []uint8 // lanes offered the current key's path
}

func newLaneCDGs(g *topo.Graph, n int) *laneCDGs {
	l := &laneCDGs{lanes: make([]*CDG, n)}
	for i := range l.lanes {
		l.lanes[i] = newCDG(2 * len(g.Links))
	}
	return l
}

// laneCDGsOf builds the lane CDGs of the tables w walks, one per lane of
// their NumVL. Pairs whose SL lies beyond the lanes are skipped: Validate
// flags them.
func laneCDGsOf(w *keyWalk) *laneCDGs {
	l := newLaneCDGs(w.t.G, max(w.t.NumVL, 1))
	w.each(func(k *pathKey) {
		if k.err == nil {
			l.add(w, k)
		}
	})
	return l
}

// add offers the path of key k to the lanes its source terminals use.
func (l *laneCDGs) add(w *keyWalk, k *pathKey) {
	l.used = w.keyLanes(k, len(l.lanes), l.used)
	for _, vl := range l.used {
		l.offer(vl, k.span())
	}
}

// offer adds the path with switch channels span to lane vl.
func (l *laneCDGs) offer(vl uint8, span []topo.ChannelID) {
	if !l.lanes[vl].AddPath(span) {
		l.cyclic = true
	}
}

// assignLanes spreads the tables' paths over at most maxVL virtual lanes
// so that each lane's CDG stays acyclic: the DFSSSP lane pass behind
// AssignVLs and, with tolerant set, behind the fault-tolerant HyperX
// engines. A tolerant pass skips pairs the tables leave unprogrammed
// (ErrNoRoute), which HXMin does by design; any other Path error aborts
// either pass, ahead of a lane-budget error. Detached terminals take part
// neither as sources nor as destinations.
//
// Each key's path is placed once, and its lane is recorded for every
// source terminal of the key. That is the lane the pair walk gave each of
// them: lanes only gain edges, so the lanes below it reject a repeat as
// they rejected the first, and the lane that took the first takes the
// repeat unchanged. Lane 0 is the SL default and is not written, so a
// single-lane result materializes no SL table.
//
// Each lane's topological order (CDG.ord) becomes the tables' lane
// certificate (Tables.laneRank); the rest of the lanes' CDGs is dropped.
func assignLanes(t *Tables, maxVL int, tolerant bool) error {
	w := newKeyWalk(t, 1<<t.LMC, true)
	lay := newLayering(t.G, maxVL)
	var err error
	// The budget error numbers the failing path as the walks this pass
	// replaced did: AssignVLs counted the pairs between attached
	// terminals; the tolerant pass counted the keys it could route from
	// each switch's first terminal, which skipped the keys toward itself.
	failed := -1
	total := w.attached * (w.attached - 1) << t.LMC
	if tolerant {
		total = 0
	}
	w.each(func(k *pathKey) {
		if err != nil {
			return
		}
		if k.err != nil {
			switch {
			case tolerant && errors.Is(k.err, ErrNoRoute):
			case tolerant:
				err = fmt.Errorf("route: %s lane assignment: %w", t.Engine, k.err)
			default:
				err = fmt.Errorf("route: VL assignment: %w", k.err)
			}
			return
		}
		counted := total
		if tolerant && k.dstNode != k.srcs[0] {
			total++
		}
		if failed >= 0 {
			return // only a Path error can still come first
		}
		vl := lay.place(k.span())
		if vl < 0 {
			failed = w.attachedPairIndex(k)
			if tolerant {
				failed = counted
			}
			return
		}
		if vl > 0 {
			for _, src := range k.srcs {
				if src != k.dstNode {
					t.SetSL(src, k.lid, uint8(vl))
				}
			}
		}
	})
	if err != nil {
		return err
	}
	if failed >= 0 {
		return fmt.Errorf("route: %s needs more than %d virtual lanes (failed at path %d of %d)",
			t.Engine, maxVL, failed, total)
	}
	t.NumVL = len(lay.lanes)
	t.laneRank = make([][]int32, len(lay.lanes))
	for vl, lane := range lay.lanes {
		t.laneRank[vl] = lane.ord
	}
	return nil
}

// attachedPairIndex numbers k's first pair among the pairs between
// distinct attached terminals, in terminal-major order.
func (w *keyWalk) attachedPairIndex(k *pathKey) int {
	rank := func(i int) int { // attached terminals before terminal i
		n := 0
		for _, si := range w.swOf[:i] {
			if si >= 0 {
				n++
			}
		}
		return n
	}
	rs, rd := rank(k.first), rank(k.dst)
	if rd > rs {
		rd--
	}
	return (rs*(w.attached-1)+rd)<<w.t.LMC + k.off
}

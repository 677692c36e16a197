package route

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

func TestCDGAcceptsDAG(t *testing.T) {
	g := NewCDG()
	// A diamond: 0->1, 0->2, 1->3, 2->3 is acyclic.
	edges := [][2]topo.ChannelID{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	for _, e := range edges {
		if !g.AddEdge(e[0], e[1]) {
			t.Fatalf("AddEdge(%v) rejected acyclic edge", e)
		}
	}
	if !g.Acyclic() {
		t.Error("Acyclic() = false for a DAG")
	}
	if g.Edges() != 4 {
		t.Errorf("Edges() = %d, want 4", g.Edges())
	}
}

func TestCDGRejectsCycle(t *testing.T) {
	g := NewCDG()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.AddEdge(2, 0) {
		t.Fatal("AddEdge closed a 3-cycle")
	}
	// Graph must be unchanged.
	if g.HasEdge(2, 0) {
		t.Error("rejected edge was inserted")
	}
	if !g.Acyclic() {
		t.Error("graph became cyclic")
	}
	// And further legal inserts still work.
	if !g.AddEdge(0, 2) {
		t.Error("legal edge rejected after a cycle rejection")
	}
}

func TestCDGSelfLoopRejected(t *testing.T) {
	g := NewCDG()
	if g.AddEdge(5, 5) {
		t.Error("self-loop accepted")
	}
}

func TestCDGDuplicateEdgeIdempotent(t *testing.T) {
	g := NewCDG()
	g.AddEdge(1, 2)
	if !g.AddEdge(1, 2) {
		t.Error("duplicate edge rejected")
	}
	if g.Edges() != 1 {
		t.Errorf("Edges() = %d, want 1", g.Edges())
	}
}

func TestCDGReorderCase(t *testing.T) {
	// Force insertion order that requires reordering: insert 1->2 then
	// 0->1 where 0 was created after 2.
	g := NewCDG()
	g.AddEdge(1, 2) // creates 1 (ord 0), 2 (ord 1)
	g.AddEdge(3, 1) // creates 3 (ord 2); needs reorder so 3 < 1
	if !g.Acyclic() {
		t.Error("graph cyclic after reorder")
	}
	if !g.AddEdge(2, 3) == false {
		// 2->3 closes 1->2->3->1: must be rejected.
		t.Error("cycle through reordered nodes accepted")
	}
}

// Property: random edge insertion maintains the invariant "AddEdge returns
// true iff graph stays acyclic", verified against the exhaustive checker,
// and every insert gives the reference insert's verdict (refCDG) and
// leaves its topological order.
func TestCDGRandomInsertionsStayAcyclic(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		g, ref := NewCDG(), &refCDG{}
		n := 12
		for i := 0; i < 80; i++ {
			u := topo.ChannelID(r.Intn(n))
			v := topo.ChannelID(r.Intn(n))
			if g.AddEdge(u, v) != ref.addEdge(u, v) {
				t.Logf("seed %d insert %d: AddEdge(%d, %d) verdict differs from the reference", seed, i, u, v)
				return false
			}
			if !slices.Equal(g.ord, ref.ord) {
				t.Logf("seed %d insert %d: AddEdge(%d, %d) left order %v, reference %v", seed, i, u, v, g.ord, ref.ord)
				return false
			}
			if !g.Acyclic() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: whenever AddEdge rejects, adding the reverse edge set must show
// a path from v to u already existed.
func TestCDGRejectImpliesReversePath(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		g := NewCDG()
		n := 10
		for i := 0; i < 60; i++ {
			u := topo.ChannelID(r.Intn(n))
			v := topo.ChannelID(r.Intn(n))
			if u == v {
				continue
			}
			if !g.AddEdge(u, v) {
				if !reachable(g, v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func reachable(g *CDG, from, to topo.ChannelID) bool {
	seen := map[topo.ChannelID]bool{from: true}
	stack := []topo.ChannelID{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		for _, m := range g.succ[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return false
}

func TestCDGAddPathRollback(t *testing.T) {
	g := NewCDG()
	if !g.AddPath([]topo.ChannelID{0, 1, 2}) {
		t.Fatal("first path rejected")
	}
	before := g.Edges()
	// Path 2->0->1 adds edges (2,0) and (0,1); (2,0) closes the cycle
	// 0->1->2->0, so the whole path must be rejected without residue.
	if g.AddPath([]topo.ChannelID{1, 2, 0}) {
		t.Fatal("cyclic path accepted")
	}
	if g.Edges() != before {
		t.Errorf("rollback left residue: %d edges, want %d", g.Edges(), before)
	}
}

func TestAssignLayersSplitsCyclicPathSets(t *testing.T) {
	g := topo.New("ring")
	// 3-switch ring with one terminal each: minimal routing around the
	// ring in one direction produces a cyclic CDG needing 2 lanes.
	var sw [3]topo.NodeID
	for i := range sw {
		sw[i] = g.AddNode(topo.Switch, "s").ID
	}
	var term [3]topo.NodeID
	for i := range term {
		term[i] = g.AddNode(topo.Terminal, "t").ID
		g.Connect(sw[i], term[i], 1e9, 1e-7)
	}
	var ring [3]*topo.Link
	for i := range sw {
		ring[i] = g.Connect(sw[i], sw[(i+1)%3], 1e9, 1e-7)
	}
	// Paths: each uses two ring channels clockwise: s0->s1->s2, s1->s2->s0,
	// s2->s0->s1 — the classic cyclic dependency.
	paths := [][]topo.ChannelID{
		{ring[0].Channel(sw[0]), ring[1].Channel(sw[1])},
		{ring[1].Channel(sw[1]), ring[2].Channel(sw[2])},
		{ring[2].Channel(sw[2]), ring[0].Channel(sw[0])},
	}
	vls := make([]int, 3)
	lanes, failed := AssignLayers(g, paths, 8, func(i, vl int) { vls[i] = vl })
	if failed >= 0 {
		t.Fatalf("assignment failed at %d", failed)
	}
	if lanes != 2 {
		t.Errorf("lanes = %d, want 2", lanes)
	}
	// With maxVL=1 it must fail.
	_, failed = AssignLayers(g, paths, 1, func(int, int) {})
	if failed < 0 {
		t.Error("maxVL=1 should fail on a cyclic path set")
	}
}

// Inserting an edge against the current topological order searches and
// re-orders the affected regions; that must run on the CDG's reused
// scratch, not allocate per insert.
func TestCDGReorderingInsertsDoNotAllocate(t *testing.T) {
	g := NewCDG()
	for c := topo.ChannelID(0); c < 3; c++ {
		g.AddEdge(c, c+1)
		g.AddEdge(10+c, 11+c)
	}
	// Each insert below joins the chains 0..3 and 10..13 against the order
	// the previous one left, so every call re-orders both chains.
	allocs := testing.AllocsPerRun(100, func() {
		if !g.AddEdge(13, 0) {
			t.Fatal("AddEdge(13, 0) rejected")
		}
		g.removeEdge(13, 0)
		if !g.AddEdge(3, 10) {
			t.Fatal("AddEdge(3, 10) rejected")
		}
		g.removeEdge(3, 10)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per pair of re-ordering inserts, want 0", allocs)
	}
	if g.ord[3] >= g.ord[10] {
		t.Error("the last insert did not re-order chain 0..3 before chain 10..13")
	}
}

// AddPath records a dependency that the committed edges alone refuse, and
// refuses it again without a search and without touching the order or the
// edges. A refusal that runs through an edge the path itself added is not
// recorded: once the rollback removes that edge, the dependency fits.
func TestCDGAddPathRecordsRefusals(t *testing.T) {
	g := NewCDG()
	if !g.AddPath([]topo.ChannelID{0, 1, 2}) {
		t.Fatal("path 0 1 2 rejected")
	}
	// 2->0 closes 0->1->2->0 on committed edges alone.
	if g.AddPath([]topo.ChannelID{2, 0}) {
		t.Fatal("cyclic path 2 0 accepted")
	}
	if !g.refuses(2, 0) {
		t.Fatal("a refusal on committed edges alone was not recorded")
	}
	ord, edges, epoch := slices.Clone(g.ord), g.Edges(), g.epoch
	// Leading committed edges are skipped, then the recorded refusal hits.
	if g.AddPath([]topo.ChannelID{1, 2, 0, 3}) {
		t.Fatal("path through a recorded refusal accepted")
	}
	if !slices.Equal(g.ord, ord) || g.Edges() != edges {
		t.Errorf("a recorded refusal changed the graph: ord %v, %d edges; want %v, %d", g.ord, g.Edges(), ord, edges)
	}
	if g.epoch != epoch {
		t.Error("a recorded refusal searched the graph again")
	}

	h := NewCDG()
	if !h.AddPath([]topo.ChannelID{2, 0}) {
		t.Fatal("path 2 0 rejected")
	}
	// With committed 2->0, the path's 1->2 closes 0->1->2->0 only through
	// the path's own 0->1, which the rollback removes again.
	if h.AddPath([]topo.ChannelID{0, 1, 2}) {
		t.Fatal("path 0 1 2 accepted over committed 2 0")
	}
	if h.refuses(1, 2) || h.HasEdge(0, 1) {
		t.Fatalf("refusal through the path's own edge: recorded %v, edge 0->1 kept %v", h.refuses(1, 2), h.HasEdge(0, 1))
	}
	if !h.AddPath([]topo.ChannelID{1, 2}) {
		t.Error("path 1 2 rejected although only the rolled-back edge 0->1 closed its cycle")
	}
}

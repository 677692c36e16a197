package route

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// Property: on random fault-free HyperX shapes, SSSP paths are minimal —
// the switch-hop count equals the number of differing lattice coordinates.
func TestSSSPMinimalityProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		s0 := 2 + int(a)%4
		s1 := 2 + int(b)%3
		T := 1 + int(c)%2
		hx := topo.NewHyperX(topo.HyperXConfig{S: []int{s0, s1}, T: T, Bandwidth: 1e9, Latency: 1e-7})
		tb, err := SSSP(hx.Graph, 0)
		if err != nil {
			return false
		}
		for i, src := range hx.Terminals() {
			for j, dst := range hx.Terminals() {
				if i == j {
					continue
				}
				p, err := tb.Path(src, tb.BaseLID[j])
				if err != nil {
					return false
				}
				cs, cd := hx.Coord(src), hx.Coord(dst)
				want := 0
				for d := range cs {
					if cs[d] != cd[d] {
						want++
					}
				}
				if SwitchHops(p) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: under progressive random degradation, every engine either
// routes all pairs (validated loop- and deadlock-free) or reports an
// error — never a silent bad table. hxmin is the deliberate exception to
// full reachability: its restricted escapes may strand pairs on a connected
// fabric, but it must say so (nonzero Unreachable, zero loops) and stay
// deadlock-free on its single lane. sssp is the exception to deadlock
// freedom — it has no virtual lanes, which is unsafe on a HyperX — so its
// verdict must instead match an independent check of its single lane.
func TestEnginesUnderProgressiveFailure(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		hx := topo.NewHyperX(topo.HyperXConfig{S: []int{4, 4}, T: 1, Bandwidth: 1e9, Latency: 1e-7})
		for round := 0; round < 5; round++ {
			topo.DegradeSwitchLinks(hx.Graph, 5, seed+uint64(round)*17)
			engines := map[string]func() (*Tables, error){
				"sssp":   func() (*Tables, error) { return SSSP(hx.Graph, 0) },
				"dfsssp": func() (*Tables, error) { return DFSSSP(hx.Graph, 0, 8) },
				"updown": func() (*Tables, error) { return UpDown(hx.Graph, 0) },
				"lash":   func() (*Tables, error) { return LASH(hx.Graph, 0, 8) },
				"hxmin":  func() (*Tables, error) { return HXMin(hx, 0) },
				"hxnm":   func() (*Tables, error) { return HXNonMin(hx, 0, 8) },
			}
			for name, mk := range engines {
				tb, err := mk()
				if err != nil {
					continue // explicit failure is acceptable
				}
				rep, err := Validate(tb)
				if err != nil {
					t.Fatalf("%s seed=%d round=%d: %v", name, seed, round, err)
				}
				if rep.Unreachable > 0 && name != "hxmin" {
					t.Errorf("%s seed=%d round=%d: %d unreachable with no error",
						name, seed, round, rep.Unreachable)
				}
				if name == "hxmin" && hasForwardingLoop(tb) {
					t.Errorf("hxmin seed=%d round=%d: forwarding loop", seed, round)
				}
				if name == "sssp" {
					if want := singleLaneAcyclic(tb); rep.DeadlockFree != want {
						t.Errorf("sssp seed=%d round=%d: DeadlockFree=%v, independent check says %v",
							seed, round, rep.DeadlockFree, want)
					}
				} else if !rep.DeadlockFree {
					t.Errorf("%s seed=%d round=%d: deadlock-prone table", name, seed, round)
				}
				if margin := DeadlockMargin(tb, 512); margin < 0 || margin > 1 {
					t.Errorf("%s seed=%d round=%d: margin %g out of [0,1]", name, seed, round, margin)
				}
			}
		}
	}
}

// Property: the subnet manager's re-sweep invariant. Random fabrics are
// degraded in successive waves — the runtime failure sequence a fault
// schedule produces — and after every wave each engine must rebuild tables
// that still route all pairs loop-free (a loop shows up as an unreachable
// pair in Validate's walk) and deadlock-free, while never using a down
// link. Connectivity-preserving degradation means "explicit error" is not
// an acceptable outcome here, unlike TestEnginesUnderProgressiveFailure.
// Lane-less sssp is held to an independent single-lane check instead of
// deadlock freedom, as there.
func TestReSweepInvariantProperty(t *testing.T) {
	f := func(seed uint64, pickTree bool) bool {
		var g *topo.Graph
		var ft *topo.FatTree
		var hx *topo.HyperX
		if pickTree {
			ft = topo.NewKaryNTree(3, 3, 1e9, 1e-7)
			g = ft.Graph
		} else {
			hx = topo.NewHyperX(topo.HyperXConfig{S: []int{4, 4}, T: 1, Bandwidth: 1e9, Latency: 1e-7})
			g = hx.Graph
		}
		engines := map[string]func() (*Tables, error){
			"sssp":   func() (*Tables, error) { return SSSP(g, 0) },
			"dfsssp": func() (*Tables, error) { return DFSSSP(g, 0, 8) },
			"updown": func() (*Tables, error) { return UpDown(g, 0) },
			"lash":   func() (*Tables, error) { return LASH(g, 0, 8) },
			"nue":    func() (*Tables, error) { return Nue(g, 0, 2) },
		}
		if pickTree {
			engines["ftree"] = func() (*Tables, error) { return FTree(ft, 0) }
		} else {
			engines["hxmin"] = func() (*Tables, error) { return HXMin(hx, 0) }
			engines["hxnm"] = func() (*Tables, error) { return HXNonMin(hx, 0, 8) }
		}
		for wave := 0; wave < 3; wave++ {
			// Each wave fails 1-3 more links at "runtime"; shortfall just
			// means the fabric is saturated with faults, which is fine.
			topo.DegradeSwitchLinks(g, 1+int(seed>>uint(wave*2))%3, seed+uint64(wave)*31)
			for name, mk := range engines {
				tb, err := mk()
				if err != nil {
					// Nue at 2 VLs can legitimately run out of cycle-free
					// parents on degraded fabrics; the SM rejects such a
					// sweep and keeps the old tables. Every other engine
					// must always rebuild.
					if name == "nue" {
						continue
					}
					t.Logf("seed=%d wave=%d %s: rebuild failed: %v", seed, wave, name, err)
					return false
				}
				rep, err := Validate(tb)
				if err != nil {
					t.Logf("seed=%d wave=%d %s: validate: %v", seed, wave, name, err)
					return false
				}
				// ftree is restricted to intact up/down ancestor chains, and
				// hxmin to low-coordinate in-line escapes, so degradation may
				// strand pairs for them (the SM reports those as unreachable);
				// every other path-based engine — including the non-minimal
				// fault-tolerant hxnm — must reach all pairs on a connected
				// fabric. Loops are never acceptable.
				lossy := name == "ftree" || name == "hxmin"
				if rep.Unreachable > 0 && !lossy {
					t.Logf("seed=%d wave=%d %s: %d unreachable/looping pairs", seed, wave, name, rep.Unreachable)
					return false
				}
				if lossy && hasForwardingLoop(tb) {
					t.Logf("seed=%d wave=%d %s: forwarding loop", seed, wave, name)
					return false
				}
				if name == "sssp" {
					if want := singleLaneAcyclic(tb); rep.DeadlockFree != want {
						t.Logf("seed=%d wave=%d sssp: DeadlockFree=%v, independent check says %v",
							seed, wave, rep.DeadlockFree, want)
						return false
					}
				} else if !rep.DeadlockFree {
					t.Logf("seed=%d wave=%d %s: deadlock-prone rebuild", seed, wave, name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// singleLaneAcyclic decides deadlock freedom of single-lane tables without
// the incremental CDG: it collects the switch-channel dependencies of every
// (src, dst-LID) path into one graph and runs Kahn's algorithm on it.
func singleLaneAcyclic(tb *Tables) bool {
	g := tb.G
	isSwitch := SwitchChannelPred(g)
	succ := make(map[topo.ChannelID]map[topo.ChannelID]bool)
	indeg := make(map[topo.ChannelID]int)
	terms := g.Terminals()
	for _, src := range terms {
		for di := range terms {
			for off := 0; off < 1<<tb.LMC; off++ {
				p, err := tb.Path(src, tb.BaseLID[di]+LID(off))
				if err != nil {
					continue
				}
				prev := NoChannel
				for _, c := range p {
					if !isSwitch(c) {
						continue
					}
					indeg[c] += 0
					if prev != NoChannel && !succ[prev][c] {
						if succ[prev] == nil {
							succ[prev] = make(map[topo.ChannelID]bool)
						}
						succ[prev][c] = true
						indeg[c]++
					}
					prev = c
				}
			}
		}
	}
	var ready []topo.ChannelID
	for c, d := range indeg {
		if d == 0 {
			ready = append(ready, c)
		}
	}
	removed := 0
	for len(ready) > 0 {
		c := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		removed++
		for m := range succ[c] {
			if indeg[m]--; indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	return removed == len(indeg)
}

// hasForwardingLoop walks every (src, dst-LID) pair and reports whether any
// hits the MaxHops loop guard (as opposed to a missing LFT entry, which is
// mere unreachability).
func hasForwardingLoop(tb *Tables) bool {
	g := tb.G
	terms := g.Terminals()
	span := 1 << tb.LMC
	for _, src := range terms {
		for di := range terms {
			for off := 0; off < span; off++ {
				_, err := tb.Path(src, tb.BaseLID[di]+LID(off))
				if err != nil && strings.Contains(err.Error(), "loop") {
					return true
				}
			}
		}
	}
	return false
}

// Property: FTree forwarding is deterministic and consistent — walking the
// LFT from any intermediate switch toward a destination always terminates
// at the right leaf.
func TestFTreeForwardingConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		ft := topo.NewKaryNTree(3, 3, 1e9, 1e-7)
		topo.DegradeSwitchLinks(ft.Graph, int(seed%15), seed)
		tb, err := FTree(ft, 0)
		if err != nil {
			return false
		}
		r := sim.NewRand(seed)
		g := ft.Graph
		terms := g.Terminals()
		for k := 0; k < 50; k++ {
			dst := terms[r.Intn(len(terms))]
			lid := tb.BaseLID[tb.TermIndex(dst)]
			sw := g.Switches()[r.Intn(g.NumSwitches())]
			cur := sw
			for hop := 0; ; hop++ {
				if hop > MaxHops {
					return false
				}
				c := tb.NextHop(cur, lid)
				if c == NoChannel {
					break // unreachable from this switch: acceptable on faults
				}
				next := g.ChannelTo(c)
				if next == dst {
					break
				}
				if g.Nodes[next].Kind != topo.Switch {
					return false // delivered to the wrong terminal
				}
				cur = next
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

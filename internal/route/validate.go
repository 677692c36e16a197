package route

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/topo"
)

// Report summarizes a routing validation pass.
type Report struct {
	Engine        string
	Paths         int
	Unreachable   int
	MaxSwitchHops int
	AvgSwitchHops float64
	// MaxChannelLoad is the maximum number of (src,dstLID) paths crossing
	// any single switch-to-switch channel — the static congestion measure
	// behind the paper's "up to seven traffic streams may share a single
	// cable" observation.
	MaxChannelLoad int
	DeadlockFree   bool
	VLs            int
}

// Validate checks every (src terminal, dst LID) pair of the forwarding
// tables for reachability and loop-freedom, accumulates hop and
// channel-load statistics, and checks that every virtual lane's CDG is
// acyclic. The paths toward one LID form a tree, so Validate resolves each
// switch's entry toward the LID once (lidTrees), counts each (source
// switch, destination LID) key from its switch's resolution, times its
// source terminals, and folds the channel loads up the tree; the SLs are
// checked in one source-major scan of the SL table. The report is the pair
// walk's. On error the report is incomplete.
//
// Tables with a lane certificate (Tables.laneRank) are proven
// deadlock-free by one lane-rise mask per resolved switch, which the scan
// matches to each pair's SL, and no graph is built. Tables without one,
// and tables whose paths break theirs, have each resolved switch's
// dependency offered once to each lane that the keys through it use
// (lidTrees.offer) — the latter in a second pass over the LIDs — so a
// wrong certificate costs time but never the verdict.
func Validate(t *Tables) (Report, error) {
	rep, _, err := validate(t)
	return rep, err
}

// keyResolved marks a key whose path reaches its LID in the SL scan's
// state of the key, one byte per (source switch, destination slot). Bit
// vl+1 of the state is set when a pair of the key may take lane vl <
// maskLanes: the lane is within NumVL and, while the certificate is in
// play, the path rises in rank on it. A key that does not resolve, or no
// key, is 0.
const keyResolved = 1

// validate is Validate, also reporting whether the lane certificate alone
// proved the lanes acyclic.
func validate(t *Tables) (rep Report, certified bool, err error) {
	g := t.G
	rep = Report{Engine: t.Engine, VLs: max(t.NumVL, 1)}
	load := make([]int, 2*len(g.Links))
	certified = t.laneRank != nil
	tr := newLIDTrees(t)
	// A detached source terminal reaches none of the other terminals' LIDs.
	rep.Unreachable = (len(t.BaseLID) - tr.attached) * (len(t.BaseLID) - 1) << t.LMC
	slots := len(t.BaseLID) << t.LMC
	// state[si*slots+slot] is the SL scan's state of key (si, slot).
	// Without an SL table every pair is on lane 0, and the keys are
	// checked as they resolve.
	var state []uint8
	if t.sl != nil {
		state = make([]uint8, g.NumSwitches()*slots)
	}
	mask := make([]uint8, g.NumSwitches())
	inRange := uint8(1<<min(rep.VLs, maskLanes) - 1)
	// Tables without a certificate feed the lanes' CDGs as the trees
	// resolve.
	var lanes *laneCDGs
	var used []uint64
	if !certified {
		lanes, used = newLaneCDGs(g, rep.VLs), make([]uint64, g.NumSwitches())
	}
	totalHops := 0
	for di := range t.BaseLID {
		for off := 0; off < 1<<t.LMC; off++ {
			tr.resolve(di, off)
			tr.fold(load)
			if certified {
				tr.riseMasks(mask)
			}
			for _, si := range tr.roots {
				pairs, h := tr.pairs(si), int(tr.hops[si])
				switch {
				case pairs == 0:
					continue
				case h < 0:
					rep.Unreachable += pairs
					continue
				}
				rep.Paths += pairs
				totalHops += h * pairs
				rep.MaxSwitchHops = max(rep.MaxSwitchHops, h)
				switch {
				case state != nil:
					admit := inRange
					if certified {
						admit &= mask[si]
					}
					state[int(si)*slots+tr.slot] = admit<<1 | keyResolved
				case certified:
					certified = mask[si]&1 != 0
				}
			}
			if lanes != nil {
				tr.offer(lanes, used)
			}
		}
	}
	if state != nil {
		// One source-major scan checks each pair's SL against its key's
		// state, meeting the pairs in pair-walk order; only a lane the
		// state does not admit needs a closer look.
		for i, si := range tr.swOf {
			if si < 0 {
				continue
			}
			sls := t.sl[i*slots : (i+1)*slots]
			keys := state[int(si)*slots : (int(si)+1)*slots]
			for slot, vl := range sls {
				st := keys[slot]
				if st>>(uint(vl)+1)&1 != 0 || st == 0 || slot>>t.LMC == i {
					continue
				}
				switch {
				case int(vl) >= rep.VLs:
					return rep, false, fmt.Errorf("route: SL %d beyond NumVL %d", vl, rep.VLs)
				case vl < maskLanes:
					certified = false // the path does not rise on its lane
				case certified:
					certified = t.chainRises(int(si), t.BaseLID[slot>>t.LMC]+LID(slot&(1<<t.LMC-1)), vl)
				}
			}
		}
	}
	for _, l := range load {
		if l > rep.MaxChannelLoad {
			rep.MaxChannelLoad = l
		}
	}
	if rep.Paths > 0 {
		rep.AvgSwitchHops = float64(totalHops) / float64(rep.Paths)
	}
	if lanes == nil && !certified {
		// A dependency broke the certificate: the lanes' CDGs decide.
		lanes = tr.lanes(rep.VLs)
	}
	rep.DeadlockFree = lanes == nil || !lanes.cyclic
	return rep, certified, nil
}

// DefaultMarginSamples bounds the candidate dependencies DeadlockMargin
// inspects per lane; degraded sweeps inspect thousands of variants, so the
// measure is sampled rather than exhaustive.
const DefaultMarginSamples = 2048

// DeadlockMargin measures a routing's CDG cycle slack: across every
// candidate channel dependency the topology could still add (an incoming
// and an outgoing live switch channel meeting at a switch, not a U-turn
// over the same link), the fraction whose addition would keep that lane's
// CDG acyclic. 1.0 means every lane could absorb any new dependency — the
// routing is far from deadlock; 0.0 means some lane can absorb none — one
// more dependency pattern would close a cycle. The minimum over lanes is
// returned, since the weakest lane bounds how much rerouting a re-sweep can
// tolerate before needing more VLs. Candidates already present as edges are
// excluded (they are spent slack). When candidates exceed maxSamples
// (<= 0 selects DefaultMarginSamples), a deterministic stride sample is
// scored instead. A lane certificate proves acyclicity but answers no
// reachability question, so the lanes' CDGs are always built here.
func DeadlockMargin(t *Tables, maxSamples int) float64 {
	if maxSamples <= 0 {
		maxSamples = DefaultMarginSamples
	}
	g := t.G
	// Unreachable pairs contribute no dependencies.
	lanes := laneCDGsOf(newKeyWalk(t, 1<<t.LMC, false))
	// A switch's incoming live switch channels are its outgoing ones
	// reversed, in the same port order.
	ll := newLiveLinks(g)
	var cands [][2]topo.ChannelID
	for si := range g.Switches() {
		outs, _ := ll.of(si)
		for _, c1 := range outs {
			for _, c2 := range outs {
				if c1 == c2 {
					continue // U-turn back over the same link
				}
				cands = append(cands, [2]topo.ChannelID{c1 ^ 1, c2})
			}
		}
	}
	if len(cands) == 0 {
		return 1
	}
	sample := cands
	if len(cands) > maxSamples {
		sample = make([][2]topo.ChannelID, maxSamples)
		for k := range sample {
			sample[k] = cands[k*len(cands)/maxSamples]
		}
	}
	margin := 1.0
	for _, lane := range lanes.lanes {
		absent, addable := 0, 0
		for _, p := range sample {
			if lane.HasEdge(p[0], p[1]) {
				continue
			}
			absent++
			if !lane.CanReach(p[1], p[0]) {
				addable++
			}
		}
		var m float64
		if absent > 0 {
			m = float64(addable) / float64(absent)
		}
		if m < margin {
			margin = m
		}
	}
	return margin
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

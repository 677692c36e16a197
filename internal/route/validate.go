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

// Validate walks every (src terminal, dst LID) pair through the forwarding
// tables, checking reachability and loop-freedom, accumulating hop and
// channel-load statistics, and checking that every virtual lane's CDG is
// acyclic. Each (source switch, destination LID) key is walked once and
// counted for each of its source terminals, and SLs are checked per pair,
// so the report is the pair walk's. On error the report is incomplete.
//
// Tables with a lane certificate (Tables.laneRank) are proven deadlock-free
// in the same walk: each key's path is checked against the ranks of each
// lane its pairs use, which builds no graph. Tables without one, and
// tables whose paths break theirs, have each key's path offered once to
// each lane's CDG (laneCDGs) — the latter in a second walk — so a wrong
// certificate costs time but never the verdict.
func Validate(t *Tables) (Report, error) {
	rep, _, err := validate(t)
	return rep, err
}

// validate is Validate, also reporting whether the lane certificate alone
// proved the lanes acyclic.
func validate(t *Tables) (rep Report, certified bool, err error) {
	g := t.G
	rep = Report{Engine: t.Engine, VLs: max(t.NumVL, 1)}
	load := make([]int, 2*len(g.Links))
	certified = t.laneRank != nil
	var lanes *laneCDGs
	if !certified {
		lanes = newLaneCDGs(g, rep.VLs)
	}
	var used []uint8
	w := newKeyWalk(t, 1<<t.LMC, false)
	// A detached source terminal reaches none of the other terminals' LIDs.
	rep.Unreachable = (len(t.BaseLID) - w.attached) * (len(t.BaseLID) - 1) << t.LMC
	totalHops := 0
	badPos, badSL := -1, uint8(0)
	w.each(func(k *pathKey) {
		if k.err != nil {
			rep.Unreachable += k.pairs
			return
		}
		rep.Paths += k.pairs
		h := SwitchHops(k.path)
		totalHops += h * k.pairs
		if h > rep.MaxSwitchHops {
			rep.MaxSwitchHops = h
		}
		span := k.span()
		for _, c := range span {
			load[c] += k.pairs
		}
		var pos int
		var sl uint8
		used, pos, sl = w.keyLanes(k, rep.VLs, used)
		if pos >= 0 && (badPos < 0 || pos < badPos) {
			badPos, badSL = pos, sl
		}
		for _, vl := range used {
			switch {
			case lanes != nil:
				lanes.offer(vl, span)
			case certified:
				certified = t.ranksRise(vl, span)
			}
		}
	})
	if badPos >= 0 {
		return rep, false, fmt.Errorf("route: SL %d beyond NumVL %d", badSL, rep.VLs)
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
		lanes = laneCDGsOf(w)
	}
	rep.DeadlockFree = lanes == nil || !lanes.cyclic
	return rep, certified, nil
}

// ChannelLoads returns the per-channel path counts for base-LID routing —
// the static oversubscription map behind Fig. 1's bottleneck analysis.
func ChannelLoads(t *Tables) []int {
	g := t.G
	load := make([]int, 2*len(g.Links))
	newKeyWalk(t, 1, false).each(func(k *pathKey) {
		if k.err != nil {
			return
		}
		for _, c := range k.span() {
			load[c] += k.pairs
		}
	})
	return load
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

package route_test

import (
	"errors"
	"fmt"

	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

// The per-pair walks that the key walk replaced, kept as the reference the
// equivalence tests compare against. They walk every (source terminal,
// destination LID) pair and call Tables.Path for each. refValidate carries
// the fix the key walk shipped with: a path a lane's CDG rejects makes the
// tables deadlock-prone (the pair walk ignored the rejection and so always
// reported deadlock freedom).

func refAssignVLs(t *route.Tables, maxVL int) error {
	g := t.G
	terms := g.Terminals()
	span := 1 << t.LMC
	type key struct {
		src topo.NodeID
		lid route.LID
	}
	var keys []key
	var paths [][]topo.ChannelID
	for _, src := range terms {
		if g.SwitchOf(src) < 0 {
			continue
		}
		for di, dst := range terms {
			if src == dst || g.SwitchOf(dst) < 0 {
				continue
			}
			for off := 0; off < span; off++ {
				lid := t.BaseLID[di] + route.LID(off)
				p, err := t.Path(src, lid)
				if err != nil {
					return fmt.Errorf("route: VL assignment: %w", err)
				}
				keys = append(keys, key{src, lid})
				paths = append(paths, p)
			}
		}
	}
	lanes, failed := route.AssignLayers(g, paths, maxVL, func(i, vl int) {
		t.SetSL(keys[i].src, keys[i].lid, uint8(vl))
	})
	if failed >= 0 {
		return fmt.Errorf("route: %s needs more than %d virtual lanes (failed at path %d of %d)",
			t.Engine, maxVL, failed, len(paths))
	}
	t.NumVL = lanes
	return nil
}

// refAssignLanesTolerant walks one representative source terminal per
// switch, switch by switch.
func refAssignLanesTolerant(t *route.Tables, maxVL int) error {
	g := t.G
	terms := g.Terminals()
	span := 1 << t.LMC
	bySwitch := make([][]topo.NodeID, g.NumSwitches())
	for _, tm := range terms {
		if sw := g.SwitchOf(tm); sw >= 0 {
			si := g.SwitchIndex(sw)
			bySwitch[si] = append(bySwitch[si], tm)
		}
	}
	type key struct {
		sw  int
		lid route.LID
	}
	var keys []key
	var paths [][]topo.ChannelID
	for si, group := range bySwitch {
		if len(group) == 0 {
			continue
		}
		src := group[0]
		for di, dst := range terms {
			if g.SwitchOf(dst) < 0 {
				continue
			}
			for off := 0; off < span; off++ {
				lid := t.BaseLID[di] + route.LID(off)
				if dst == src {
					continue
				}
				p, err := t.Path(src, lid)
				if err != nil {
					if errors.Is(err, route.ErrNoRoute) {
						continue
					}
					return fmt.Errorf("route: %s lane assignment: %w", t.Engine, err)
				}
				keys = append(keys, key{si, lid})
				paths = append(paths, p)
			}
		}
	}
	lanes, failed := route.AssignLayers(g, paths, maxVL, func(i, vl int) {
		if vl == 0 {
			return
		}
		for _, src := range bySwitch[keys[i].sw] {
			t.SetSL(src, keys[i].lid, uint8(vl))
		}
	})
	if failed >= 0 {
		return fmt.Errorf("route: %s needs more than %d virtual lanes (failed at path %d of %d)",
			t.Engine, maxVL, failed, len(paths))
	}
	t.NumVL = lanes
	return nil
}

func refValidate(t *route.Tables) (route.Report, error) {
	g := t.G
	terms := g.Terminals()
	span := 1 << t.LMC
	rep := route.Report{Engine: t.Engine, VLs: max(t.NumVL, 1)}
	load := make([]int, 2*len(g.Links))
	isSwitch := route.SwitchChannelPred(g)
	layers := make([]*route.CDG, rep.VLs)
	for i := range layers {
		layers[i] = route.NewCDG()
	}
	rejected := false
	totalHops := 0
	for _, src := range terms {
		for di, dst := range terms {
			if src == dst {
				continue
			}
			for off := 0; off < span; off++ {
				lid := t.BaseLID[di] + route.LID(off)
				p, err := t.Path(src, lid)
				if err != nil {
					rep.Unreachable++
					continue
				}
				rep.Paths++
				h := route.SwitchHops(p)
				totalHops += h
				if h > rep.MaxSwitchHops {
					rep.MaxSwitchHops = h
				}
				for _, c := range p {
					if isSwitch(c) {
						load[c]++
					}
				}
				vl := t.SL(src, lid)
				if int(vl) >= len(layers) {
					return rep, fmt.Errorf("route: SL %d beyond NumVL %d", vl, rep.VLs)
				}
				if !layers[vl].AddPath(switchChannels(p, isSwitch)) {
					rejected = true
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
	rep.DeadlockFree = !rejected
	return rep, nil
}

func refChannelLoads(t *route.Tables) []int {
	g := t.G
	load := make([]int, 2*len(g.Links))
	isSwitch := route.SwitchChannelPred(g)
	for _, src := range g.Terminals() {
		for di, dst := range g.Terminals() {
			if src == dst {
				continue
			}
			p, err := t.Path(src, t.BaseLID[di])
			if err != nil {
				continue
			}
			for _, c := range p {
				if isSwitch(c) {
					load[c]++
				}
			}
		}
	}
	return load
}

func refDeadlockMargin(t *route.Tables, maxSamples int) float64 {
	if maxSamples <= 0 {
		maxSamples = route.DefaultMarginSamples
	}
	g := t.G
	terms := g.Terminals()
	span := 1 << t.LMC
	isSwitch := route.SwitchChannelPred(g)
	layers := make([]*route.CDG, max(t.NumVL, 1))
	for i := range layers {
		layers[i] = route.NewCDG()
	}
	for _, src := range terms {
		for di := range terms {
			for off := 0; off < span; off++ {
				lid := t.BaseLID[di] + route.LID(off)
				if t.OwnerOf(lid) < 0 || terms[di] == src {
					continue
				}
				p, err := t.Path(src, lid)
				if err != nil {
					continue
				}
				vl := int(t.SL(src, lid))
				if vl >= len(layers) {
					continue
				}
				layers[vl].AddPath(switchChannels(p, isSwitch))
			}
		}
	}
	var cands [][2]topo.ChannelID
	for _, b := range g.Switches() {
		var ins, outs []topo.ChannelID
		for _, l := range g.Nodes[b].Ports {
			if l == nil || l.Down {
				continue
			}
			o := l.Other(b)
			if g.Nodes[o].Kind != topo.Switch {
				continue
			}
			ins = append(ins, l.Channel(o))
			outs = append(outs, l.Channel(b))
		}
		for _, c1 := range ins {
			for _, c2 := range outs {
				if c1/2 == c2/2 {
					continue
				}
				cands = append(cands, [2]topo.ChannelID{c1, c2})
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
	for _, lane := range layers {
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

// switchChannels returns the channels of p that isSwitch selects: the
// input CDG.AddPath takes.
func switchChannels(p []topo.ChannelID, isSwitch func(topo.ChannelID) bool) []topo.ChannelID {
	var span []topo.ChannelID
	for _, c := range p {
		if isSwitch(c) {
			span = append(span, c)
		}
	}
	return span
}

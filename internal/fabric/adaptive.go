package fabric

import (
	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/topo"
)

// Adaptive routing is the paper's explicit future-work target: "This PARX
// prototype ... will be replaced by true adaptive routing in future HyperX
// deployments, yielding even better results than ours" (Sec. 7). The
// HyperX was designed for DAL (Dimensionally-Adaptive, Load-balanced
// routing, Ahn et al.), which the authors' QDR InfiniBand could not do.
//
// The simulator can: EnableAdaptive makes the fabric pick, per message,
// the least-loaded of the destination's routed paths (all 2^LMC LIDs when
// the tables carry PARX's minimal+non-minimal set, or the single LID
// otherwise), using instantaneous channel occupancy — a flow-level
// idealization of per-packet adaptive routing.

// EnableAdaptive switches the fabric to load-adaptive path selection among
// the destination's LIDs. With LMC=0 tables it degenerates to static
// routing; it is most useful on PARX tables, where the four LIDs span
// minimal and non-minimal paths (a DAL-like choice set).
func (f *Fabric) EnableAdaptive(hx *topo.HyperX) error {
	if hx != nil && f.Tables.LMC >= core.LMC {
		// Keep quadrant bookkeeping for diagnostics parity with bfo.
		f.quadrants = make([]core.Quadrant, hx.NumTerminals())
		for i, tm := range hx.Terminals() {
			f.quadrants[i] = core.QuadrantOfTerminal(hx, tm)
		}
	}
	f.pml = adaptive
	f.hx = hx
	return nil
}

// adaptive is the internal PML value for load-adaptive selection.
const adaptive PML = 2

// channelLoad counts active flows per channel, maintained lazily from the
// flow network at selection time. To stay O(candidates) per message we
// track loads incrementally in the fabric.
type loadTracker struct {
	counts []int32
}

func (f *Fabric) loads() *loadTracker {
	if f.lt == nil {
		f.lt = &loadTracker{counts: make([]int32, 2*len(f.G.Links))}
	}
	return f.lt
}

// selectAdaptiveLID returns the destination LID whose routed path
// currently crosses the fewest busy channels (ties: lowest LID).
func (f *Fabric) selectAdaptiveLID(src, dst topo.NodeID, _ int64) route.LID {
	lt := f.loads()
	dstIdx := f.Tables.TermIndex(dst)
	base := f.Tables.BaseLID[dstIdx]
	span := route.LID(1) << f.Tables.LMC
	bestLID := base
	bestCost := int32(1 << 30)
	for off := route.LID(0); off < span; off++ {
		lid := base + off
		p, err := f.pathTo(src, lid)
		if err != nil {
			continue
		}
		// Cost: maximum occupancy along the path, then path length as a
		// minor term (prefer minimal among equally loaded).
		var occ int32
		for _, c := range p {
			if int(c) < len(lt.counts) && lt.counts[c] > occ {
				occ = lt.counts[c]
			}
		}
		cost := occ*64 + int32(len(p))
		if cost < bestCost {
			bestCost = cost
			bestLID = lid
		}
	}
	return bestLID
}

// noteFlow adjusts occupancy counters for a path. With telemetry attached
// the selection-time occupancy also raises the channel's concurrent-flow
// high-watermark, so the adaptive picker's view lands in the same counter
// set the flow network maintains.
func (f *Fabric) noteFlow(p []topo.ChannelID, delta int32) {
	lt := f.loads()
	for _, c := range p {
		if int(c) < len(lt.counts) {
			lt.counts[c] += delta
			if delta > 0 && f.Tel != nil && f.Tel.Chans != nil {
				f.Tel.Chans.NoteActive(c, int(lt.counts[c]))
			}
		}
	}
}

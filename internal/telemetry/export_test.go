package telemetry

import (
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// All enables every recording surface.
func All() Options { return Options{Counters: true, Messages: true, Trace: true} }

// MaxWait returns the largest per-channel wait and the channel holding it
// (-1 when all zero).
func (cc *ChannelCounters) MaxWait() (topo.ChannelID, sim.Duration) {
	cc.Flush()
	best := topo.ChannelID(-1)
	var w sim.Duration
	for c, d := range cc.XmitWait {
		if d > w {
			w = d
			best = topo.ChannelID(c)
		}
	}
	return best, w
}

// MaxActive returns the highest concurrent-flow watermark over all fabric
// channels, maintained for every PML.
func (cc *ChannelCounters) MaxActive() int32 {
	cc.Flush()
	var m int32
	for _, v := range cc.ActiveHWM {
		if v > m {
			m = v
		}
	}
	return m
}

// Sum reports the exact sample sum (in units; the underlying tick sum is
// an integer, so it is merge-order independent).
func (h *Hist) Sum() float64 { return float64(h.sumTicks) / h.Scale }

// HistFromSnapshot rebuilds a histogram from exported state, so JSONL
// "hist" lines from different shards/runs can be re-merged offline.
func HistFromSnapshot(s HistSnapshot) *Hist {
	h := NewHist(s.Name, s.Unit, s.Scale)
	h.count, h.sumTicks, h.minTick, h.maxTick = s.Count, s.SumTicks, s.MinTick, s.MaxTick
	for k, i := range s.Buckets {
		if int(i) >= len(h.counts) {
			grown := make([]uint64, i+1)
			copy(grown, h.counts)
			h.counts = grown
		}
		h.counts[i] = s.Counts[k]
	}
	return h
}

// Total reports the total line count over all kinds.
func (s *CountSink) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, c := range s.kinds {
		n += c
	}
	return n
}

// ClosingSink is a CountSink that also counts its Close calls, for the
// stream lifecycle tests.
type ClosingSink struct {
	*CountSink
	Closes int
}

func NewClosingSink() *ClosingSink { return &ClosingSink{CountSink: NewCountSink()} }

// Close counts the call.
func (s *ClosingSink) Close() error {
	s.Closes++
	return s.CountSink.Close()
}

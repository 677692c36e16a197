package telemetry

import "math/bits"

// Hist is a mergeable log-bucketed (HDR-style) histogram over non-negative
// samples. The collector's FCT percentiles come from a Hist: per-message
// records leave memory the moment they close, and the distribution
// survives as a few KB of integer bucket counts instead of an O(messages)
// float slice.
//
// Samples are quantized to integer "ticks" (value x Scale, rounded) and
// bucketed with the HDR scheme: ticks below 2^HistSubBits land in exact
// unit buckets; above, each power of two is split into 2^HistSubBits
// sub-buckets, bounding the relative bucket width by 2^-HistSubBits
// (~1.6%). Every counter is an integer, so merging histograms — across
// sweep cells, worker shards, or exported JSONL documents — is exactly
// commutative and associative: any merge order produces bit-identical
// state, which is what makes -j1 and -jN sweep snapshots comparable byte
// for byte (floats would accumulate in completion order and diverge).
//
// A Hist is not concurrency-safe; like the Collector it lives inside one
// single-threaded simulation. Cross-worker aggregation merges finished
// histograms in deterministic (cell-index) order after the pool drains.
type Hist struct {
	// Name labels the distribution in exported "hist" lines ("fct",
	// "queue_depth", "xmit_wait").
	Name string
	// Unit is the sample unit after dividing ticks by Scale ("s", "events").
	Unit string
	// Scale converts samples to ticks (1e9 for seconds -> nanoseconds;
	// 1 for naturally integer samples like queue depths).
	Scale float64

	count    uint64
	sumTicks uint64
	minTick  uint64
	maxTick  uint64
	counts   []uint64 // dense, indexed by bucketIndex; grown on demand
}

const (
	// HistSubBits fixes the resolution: 2^6 = 64 sub-buckets per power of
	// two, so any recorded tick is reproduced within a relative error of
	// 2^-6 (plus at most half a tick of quantization).
	HistSubBits  = 6
	histSubCount = 1 << HistSubBits
)

// NewHist builds an empty histogram.
func NewHist(name, unit string, scale float64) *Hist {
	if scale <= 0 {
		scale = 1
	}
	return &Hist{Name: name, Unit: unit, Scale: scale}
}

// bucketIndex maps a tick to its bucket. Ticks below histSubCount are
// exact; above, the top HistSubBits+1 significant bits select the bucket.
func bucketIndex(u uint64) int {
	if u < histSubCount {
		return int(u)
	}
	h := bits.Len64(u) - 1 // u in [2^h, 2^(h+1)), h >= HistSubBits
	shift := uint(h - HistSubBits)
	return int(uint64(h-HistSubBits+1)<<HistSubBits + (u >> shift) - histSubCount)
}

// bucketMid returns the representative tick of bucket i: the exact value
// for unit buckets, the midpoint otherwise.
func bucketMid(i int) uint64 {
	if i < histSubCount {
		return uint64(i)
	}
	shift := uint(i>>HistSubBits) - 1 // bucket ordinal >= 1
	sub := uint64(i & (histSubCount - 1))
	lo := (histSubCount + sub) << shift
	return lo + uint64(1)<<shift/2
}

// Observe records one sample in the histogram's unit.
func (h *Hist) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.ObserveTick(uint64(v*h.Scale + 0.5))
}

// ObserveTick records one pre-quantized sample.
func (h *Hist) ObserveTick(u uint64) {
	i := bucketIndex(u)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.sumTicks += u
	if h.count == 0 || u < h.minTick {
		h.minTick = u
	}
	if u > h.maxTick {
		h.maxTick = u
	}
	h.count++
}

// Count reports the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Mean reports the exact sample mean, 0 when empty.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sumTicks) / float64(h.count) / h.Scale
}

// Min and Max report the exact extreme samples (0 when empty).
func (h *Hist) Min() float64 { return float64(h.minTick) / h.Scale }
func (h *Hist) Max() float64 { return float64(h.maxTick) / h.Scale }

// Quantile returns the q-quantile (nearest rank) with relative error
// bounded by 2^-HistSubBits plus half-tick quantization. Results are
// clamped to the exact [Min, Max] envelope.
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.count-1))
	// The extreme ranks are the min/max samples, which are tracked
	// exactly — no need to settle for a bucket midpoint.
	if rank == 0 {
		return h.Min()
	}
	if rank >= h.count-1 {
		return h.Max()
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum > rank {
			u := bucketMid(i)
			if u < h.minTick {
				u = h.minTick
			}
			if u > h.maxTick {
				u = h.maxTick
			}
			return float64(u) / h.Scale
		}
	}
	return float64(h.maxTick) / h.Scale
}

// Merge folds o into h. The two histograms must agree on Scale (same tick
// quantization); Name/Unit are kept from h. Merging is commutative and
// associative: bucket counts, the tick sum and the extrema are integers,
// so any merge order yields bit-identical state.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	if o.Scale != h.Scale {
		panic("telemetry: merging histograms with different scales")
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.minTick < h.minTick {
		h.minTick = o.minTick
	}
	if o.maxTick > h.maxTick {
		h.maxTick = o.maxTick
	}
	h.count += o.count
	h.sumTicks += o.sumTicks
}

// HistSnapshot is the compact exportable state: sparse sorted bucket
// indexes with their counts plus the exact integer aggregates. Two
// histograms built from the same multiset of ticks produce byte-identical
// snapshots regardless of observation or merge order.
type HistSnapshot struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	Scale    float64  `json:"scale"`
	SubBits  int      `json:"sub_bits"`
	Count    uint64   `json:"count"`
	SumTicks uint64   `json:"sum_ticks"`
	MinTick  uint64   `json:"min_tick"`
	MaxTick  uint64   `json:"max_tick"`
	Buckets  []int32  `json:"buckets"`
	Counts   []uint64 `json:"counts"`
}

// Snapshot extracts the exportable state (buckets ascending, zero buckets
// skipped).
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Name: h.Name, Unit: h.Unit, Scale: h.Scale, SubBits: HistSubBits,
		Count: h.count, SumTicks: h.sumTicks, MinTick: h.minTick, MaxTick: h.maxTick,
		Buckets: []int32{}, Counts: []uint64{},
	}
	for i, c := range h.counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, int32(i))
			s.Counts = append(s.Counts, c)
		}
	}
	return s
}

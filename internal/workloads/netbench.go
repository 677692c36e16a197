package workloads

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// The two bandwidth probes of the paper that need per-pair timing rather
// than a job makespan run directly on the fabric: mpiGraph (Fig. 1) and
// Netgauge's effective bisection bandwidth (Fig. 5c).

// GiB converts bytes/second to GiB/s.
func GiB(bytesPerSec float64) float64 { return bytesPerSec / (1 << 30) }

// MpiGraphResult is the bandwidth heatmap of Fig. 1.
type MpiGraphResult struct {
	// BW[src][dst] is the observed send bandwidth in bytes/second (0 on
	// the diagonal).
	BW [][]float64
	// AvgGiB is the mean off-diagonal bandwidth in GiB/s — the number the
	// paper quotes (2.26 / 0.84 / 1.39 for FT, HyperX-minimal, PARX).
	AvgGiB float64
	// MinGiB/MaxGiB bound the heatmap color scale.
	MinGiB, MaxGiB float64
}

// MpiGraph measures the pairwise send bandwidth matrix like LLNL's
// mpiGraph: for each offset k, every rank i streams msgSize bytes to rank
// (i+k) mod n simultaneously, so shared cables show up as dark bands.
// Equivalent to MpiGraphWindow with a window of 1.
func MpiGraph(f fabric.Messenger, ranks []topo.NodeID, msgSize int64) *MpiGraphResult {
	return MpiGraphWindow(f, ranks, msgSize, 1)
}

// MpiGraphWindow keeps `window` consecutive offsets in flight
// concurrently, like the real benchmark's send window — deepening
// congestion on shared cables and pulling the averages toward the paper's
// at-scale numbers.
func MpiGraphWindow(f fabric.Messenger, ranks []topo.NodeID, msgSize int64, window int) *MpiGraphResult {
	n := len(ranks)
	if window < 1 {
		window = 1
	}
	res := &MpiGraphResult{BW: make([][]float64, n)}
	for i := range res.BW {
		res.BW[i] = make([]float64, n)
	}
	for k := 1; k < n; k += window {
		start := f.Engine().Now()
		for w := 0; w < window && k+w < n; w++ {
			for i := 0; i < n; i++ {
				src, dst := i, (i+k+w)%n
				f.Send(ranks[src], ranks[dst], msgSize, func(at sim.Time) {
					res.BW[src][dst] = float64(msgSize) / float64(at-start)
				})
			}
		}
		f.Engine().Run()
	}
	var sum float64
	cnt := 0
	res.MinGiB = -1
	for i := range res.BW {
		for j := range res.BW[i] {
			if i == j {
				continue
			}
			g := GiB(res.BW[i][j])
			sum += g
			cnt++
			if res.MinGiB < 0 || g < res.MinGiB {
				res.MinGiB = g
			}
			if g > res.MaxGiB {
				res.MaxGiB = g
			}
		}
	}
	if cnt > 0 {
		res.AvgGiB = sum / float64(cnt)
	}
	return res
}

// EBBResult is Netgauge's effective bisection bandwidth measurement.
type EBBResult struct {
	// Samples holds the per-bisection mean pair bandwidth (bytes/s).
	Samples []float64
	// MeanGiB/MinGiB/MaxGiB summarize across samples (per-pair GiB/s,
	// matching Fig. 5c's y-axis).
	MeanGiB, MinGiB, MaxGiB float64
}

// EffectiveBisectionBandwidth runs Netgauge's eBB (Sec. 4.1): samples
// random bisections of the allocation; in each, every pair exchanges
// msgSize bytes in both directions simultaneously and the per-pair
// bandwidth is averaged. The paper uses 1000 samples of 1 MiB.
func EffectiveBisectionBandwidth(f fabric.Messenger, ranks []topo.NodeID, samples int, msgSize int64, seed uint64) (*EBBResult, error) {
	n := len(ranks)
	if n < 2 {
		return nil, fmt.Errorf("workloads: eBB needs >= 2 nodes")
	}
	if samples < 1 {
		return nil, fmt.Errorf("workloads: eBB needs >= 1 sample, got %d", samples)
	}
	rng := sim.NewRand(seed)
	res := &EBBResult{}
	pairs := n / 2
	for s := 0; s < samples; s++ {
		perm := rng.Perm(n)
		start := f.Engine().Now()
		pairBW := make([]float64, pairs)
		for p := 0; p < pairs; p++ {
			a, b := ranks[perm[2*p]], ranks[perm[2*p+1]]
			p := p
			var tA, tB sim.Time = -1, -1
			record := func() {
				if tA >= 0 && tB >= 0 {
					slow := tA
					if tB > slow {
						slow = tB
					}
					pairBW[p] = float64(msgSize) / float64(slow-start)
				}
			}
			f.Send(a, b, msgSize, func(at sim.Time) { tA = at; record() })
			f.Send(b, a, msgSize, func(at sim.Time) { tB = at; record() })
		}
		f.Engine().Run()
		var mean float64
		for _, bw := range pairBW {
			mean += bw
		}
		mean /= float64(pairs)
		res.Samples = append(res.Samples, mean)
	}
	res.MinGiB = -1
	for _, s := range res.Samples {
		g := GiB(s)
		res.MeanGiB += g
		if res.MinGiB < 0 || g < res.MinGiB {
			res.MinGiB = g
		}
		if g > res.MaxGiB {
			res.MaxGiB = g
		}
	}
	res.MeanGiB /= float64(len(res.Samples))
	return res, nil
}

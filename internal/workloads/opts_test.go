package workloads

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/sim"
)

func countOps(progs []*mpi.Program) int {
	n := 0
	for _, p := range progs {
		n += len(p.Ops)
	}
	return n
}

func TestBuildOptsIterScaleShrinksPrograms(t *testing.T) {
	full := BuildAMG(8, DefaultOpts())
	quarter := BuildAMG(8, BuildOpts{IterScale: 0.25, ComputeScale: 1})
	if countOps(quarter.Progs) >= countOps(full.Progs) {
		t.Errorf("IterScale=0.25 did not shrink programs: %d vs %d",
			countOps(quarter.Progs), countOps(full.Progs))
	}
}

func TestBuildOptsPrologPrepended(t *testing.T) {
	o := BuildOpts{IterScale: 1, ComputeScale: 1, Prolog: 30 * sim.Second}
	in := BuildCoMD(4, o)
	for r, p := range in.Progs {
		if len(p.Ops) == 0 || p.Ops[0].Kind != mpi.OpCompute || p.Ops[0].Dur != 30*sim.Second {
			t.Fatalf("rank %d missing 30s prolog: first op %+v", r, p.Ops[0])
		}
	}
}

func TestBuildOptsComputeScale(t *testing.T) {
	base := BuildMiniFE(4, DefaultOpts())
	scaled := BuildMiniFE(4, BuildOpts{IterScale: 1, ComputeScale: 3})
	sum := func(in *Instance) sim.Duration {
		var total sim.Duration
		for _, op := range in.Progs[0].Ops {
			if op.Kind == mpi.OpCompute {
				total += op.Dur
			}
		}
		return total
	}
	ratio := float64(sum(scaled)) / float64(sum(base))
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("ComputeScale=3 gave compute ratio %.2f", ratio)
	}
}

func TestBuildOptsItersFloorAtOne(t *testing.T) {
	o := BuildOpts{IterScale: 0.0001, ComputeScale: 1}
	in := BuildGraph500(4, o)
	if len(in.Progs[0].Ops) == 0 {
		t.Error("IterScale ~0 produced an empty program; iteration floor broken")
	}
}

func TestWeakStarInputsShrink(t *testing.T) {
	// FFVC shrinks its cuboid beyond 64 nodes (Sec. 5.2): the per-iteration
	// halo faces must be smaller at 128 nodes than at 64.
	sizeOfLargestSend := func(in *Instance) int64 {
		var max int64
		for _, p := range in.Progs {
			for _, op := range p.Ops {
				if op.Kind == mpi.OpISend && op.Size > max {
					max = op.Size
				}
			}
		}
		return max
	}
	small := BuildFFVC(128, DefaultOpts())
	big := BuildFFVC(64, DefaultOpts())
	if sizeOfLargestSend(small) >= sizeOfLargestSend(big) {
		t.Errorf("FFVC weak* did not shrink input beyond 64 nodes: %d vs %d",
			sizeOfLargestSend(small), sizeOfLargestSend(big))
	}
	// HPL shrinks per-process memory from 224 nodes on; the total modelled
	// flops must grow sublinearly across that boundary.
	h1 := BuildHPL(112, DefaultOpts())
	h2 := BuildHPL(224, DefaultOpts())
	if h2.Flops/h1.Flops > 2.0 {
		t.Errorf("HPL weak* boundary missing: flops ratio %.2f", h2.Flops/h1.Flops)
	}
}

func TestInstanceScoreModes(t *testing.T) {
	flops := &Instance{Flops: 2e9}
	if got := flops.Score(2 * sim.Second); got != 1 {
		t.Errorf("Gflop/s score = %v, want 1", got)
	}
	edges := &Instance{Edges: 3e9}
	if got := edges.Score(3 * sim.Second); got != 1 {
		t.Errorf("GTEPS score = %v, want 1", got)
	}
	ops := &Instance{Ops: 10}
	if got := ops.Score(1 * sim.Millisecond); got != 100 {
		t.Errorf("us/op score = %v, want 100", got)
	}
	plain := &Instance{}
	if got := plain.Score(7 * sim.Second); got != 7 {
		t.Errorf("runtime score = %v, want 7", got)
	}
}

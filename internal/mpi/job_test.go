package mpi

import (
	"math"
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// testFabric builds a 4x4 HyperX (T=2, 32 nodes) with DFSSSP and zero
// overheads for exact arithmetic, unless withOverheads is set.
func testFabric(t *testing.T, withOverheads bool) (*topo.HyperX, *fabric.Fabric) {
	t.Helper()
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: []int{4, 4}, T: 2, Bandwidth: 1e9, Latency: 100 * sim.Nanosecond,
	})
	tb, err := route.DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := fabric.Params{}
	if withOverheads {
		p = fabric.DefaultParams()
	}
	return hx, fabric.New(sim.NewEngine(), tb, p, 1)
}

func run(t *testing.T, f *fabric.Fabric, ranks []topo.NodeID, progs []*Program) Result {
	t.Helper()
	res, err := Run(f, "test", ranks, progs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPingPong pins a ping-pong between the two terminals of one switch to
// its closed form: two 100 ns links (L = 200 ns) at B = 1 GB/s with no
// overheads, so each leg of s bytes takes L + s/B, after the RTS/CTS delay
// when s is past the eager threshold.
func TestPingPong(t *testing.T) {
	const lat, bw = 200 * sim.Nanosecond, 1e9
	for _, tc := range []struct {
		size int64
		want sim.Duration
	}{
		{1000, 2 * (lat + 1000/bw)},                                  // eager
		{64 << 10, 2 * (DefaultRendezvousDelay + lat + (64<<10)/bw)}, // rendezvous
	} {
		hx, f := testFabric(t, false)
		ranks := hx.Terminals()[:2]
		b := NewBuilder(2)
		b.Progs[0].Send(1, tc.size, 1)
		b.Progs[1].Recv(0, 1)
		b.Progs[1].Send(0, tc.size, 2)
		b.Progs[0].Recv(1, 2)
		res := run(t, f, ranks, b.Progs)
		if rel := math.Abs(float64(res.Elapsed-tc.want)) / float64(tc.want); rel > 1e-12 {
			t.Errorf("%d B: elapsed = %v, want %v (relative error %.2g)", tc.size, res.Elapsed, tc.want, rel)
		}
		if f.Messages != 2 {
			t.Errorf("%d B: messages = %d, want 2", tc.size, f.Messages)
		}
	}
}

func TestEagerSendCompletesLocally(t *testing.T) {
	hx, f := testFabric(t, false)
	ranks := hx.Terminals()[:2]
	b := NewBuilder(2)
	// Rank 0 sends eagerly and finishes before rank 1 even posts its recv
	// (rank 1 computes first).
	b.Progs[0].Send(1, 8, 1)
	b.Progs[1].Compute(1.0) // 1 simulated second
	b.Progs[1].Recv(0, 1)
	res := run(t, f, ranks, b.Progs)
	// The job ends when rank 1 finishes (~1s), but never deadlocks.
	if res.Elapsed < 1.0 {
		t.Errorf("elapsed = %v, want >= 1s (compute)", res.Elapsed)
	}
}

func TestRendezvousWaitsForReceiver(t *testing.T) {
	hx, f := testFabric(t, false)
	ranks := hx.Terminals()[:2]
	b := NewBuilder(2)
	size := int64(1e6) // >> eager threshold; 1 MB at 1 GB/s = 1 ms
	b.Progs[0].Send(1, size, 1)
	b.Progs[1].Compute(0.5)
	b.Progs[1].Recv(0, 1)
	res := run(t, f, ranks, b.Progs)
	// Transfer cannot start before t=0.5: total >= 0.5 + 1ms.
	if res.Elapsed < 0.501 {
		t.Errorf("elapsed = %v; rendezvous started before recv was posted", res.Elapsed)
	}
}

func TestUnmatchedRecvDeadlocks(t *testing.T) {
	hx, f := testFabric(t, false)
	ranks := hx.Terminals()[:2]
	b := NewBuilder(2)
	b.Progs[0].Recv(1, 99) // never sent
	_, err := Run(f, "dead", ranks, b.Progs, Options{})
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error = %v, want deadlock report", err)
	}
}

func TestAnySourceMatching(t *testing.T) {
	hx, f := testFabric(t, false)
	ranks := hx.Terminals()[:3]
	b := NewBuilder(3)
	b.Progs[1].Send(0, 64, 7)
	b.Progs[2].Send(0, 64, 7)
	b.Progs[0].Recv(AnySource, 7)
	b.Progs[0].Recv(AnySource, 7)
	run(t, f, ranks, b.Progs)
}

func TestTagSelectivity(t *testing.T) {
	hx, f := testFabric(t, false)
	ranks := hx.Terminals()[:2]
	b := NewBuilder(2)
	// Two messages with different tags, received in reverse order.
	b.Progs[0].Send(1, 64, 1)
	b.Progs[0].Send(1, 64, 2)
	b.Progs[1].Recv(0, 2)
	b.Progs[1].Recv(0, 1)
	run(t, f, ranks, b.Progs)
}

func TestBarrierSynchronizes(t *testing.T) {
	hx, f := testFabric(t, false)
	n := 8
	ranks := hx.Terminals()[:n]
	b := NewBuilder(n)
	// Rank 3 computes 1s before the barrier; everyone must leave after 1s.
	b.Progs[3].Compute(1.0)
	b.Barrier()
	res := run(t, f, ranks, b.Progs)
	if res.Elapsed < 1.0 {
		t.Errorf("barrier released early: %v", res.Elapsed)
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	hx, f := testFabric(t, false)
	for _, n := range []int{2, 3, 4, 7, 8, 16} {
		b := NewBuilder(n)
		b.Bcast(0, 4096)
		if _, err := Run(f, "bcast", hx.Terminals()[:n], b.Progs, Options{}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	hx, f := testFabric(t, false)
	b := NewBuilder(7)
	b.Bcast(3, 1024)
	run(t, f, hx.Terminals()[:7], b.Progs)
}

func TestReduceCompletes(t *testing.T) {
	hx, f := testFabric(t, false)
	for _, n := range []int{2, 5, 8, 13} {
		b := NewBuilder(n)
		b.Reduce(0, 8192)
		if _, err := Run(f, "reduce", hx.Terminals()[:n], b.Progs, Options{}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAllreduceBothAlgorithms(t *testing.T) {
	hx, f := testFabric(t, false)
	for _, n := range []int{2, 3, 4, 6, 8, 12} {
		for _, size := range []int64{256, 1 << 20} {
			b := NewBuilder(n)
			b.Allreduce(size)
			if _, err := Run(f, "allreduce", hx.Terminals()[:n], b.Progs, Options{}); err != nil {
				t.Fatalf("n=%d size=%d: %v", n, size, err)
			}
		}
	}
}

func TestGatherScatterAllgatherAlltoall(t *testing.T) {
	hx, f := testFabric(t, false)
	n := 9
	b := NewBuilder(n)
	b.Gather(0, 1024)
	b.Scatter(0, 1024)
	b.Allgather(512)
	b.Alltoall(256)
	run(t, f, hx.Terminals()[:n], b.Progs)
}

func TestRingAllreduceBandwidthOptimal(t *testing.T) {
	// On a contention-free fabric, ring allreduce of S bytes over n ranks
	// moves 2(n-1) chunks of S/n: wall time ~ 2(n-1)/n * S/B per rank.
	hx, f := testFabric(t, false)
	n := 4
	size := int64(4 << 20)
	b := NewBuilder(n)
	b.RingAllreduce(size)
	// Place the 4 ranks on 4 distinct switches in one row: ring neighbors
	// are directly connected.
	var ranks []topo.NodeID
	for x := 0; x < 4; x++ {
		ranks = append(ranks, hx.TerminalsOf(hx.SwitchAt(x, 0))[0])
	}
	res := run(t, f, ranks, b.Progs)
	chunk := float64(size / int64(n))
	ideal := 2 * float64(n-1) * chunk / 1e9
	if float64(res.Elapsed) < ideal*0.9 {
		t.Errorf("ring allreduce faster than physics: %v < %v", res.Elapsed, ideal)
	}
	if float64(res.Elapsed) > ideal*2.5 {
		t.Errorf("ring allreduce too slow: %v vs ideal %v", res.Elapsed, ideal)
	}
}

func TestComputeJitterChangesElapsed(t *testing.T) {
	hx, f := testFabric(t, false)
	mk := func() []*Program {
		b := NewBuilder(2)
		b.Compute(1.0)
		b.Barrier()
		return b.Progs
	}
	r1, err := Run(f, "j1", hx.Terminals()[:2], mk(), Options{ComputeJitterSigma: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hx2, f2 := testFabric(t, false)
	r2, err := Run(f2, "j2", hx2.Terminals()[:2], mk(), Options{ComputeJitterSigma: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elapsed == r2.Elapsed {
		t.Error("different jitter seeds produced identical timings")
	}
	if math.Abs(float64(r1.Elapsed)-1.0) > 0.5 {
		t.Errorf("jittered compute way off: %v", r1.Elapsed)
	}
}

func TestConcurrentJobsOnSharedFabric(t *testing.T) {
	hx, f := testFabric(t, false)
	terms := hx.Terminals()
	mk := func(size int64) []*Program {
		b := NewBuilder(4)
		b.Alltoall(size)
		return b.Progs
	}
	var done int
	for j := 0; j < 3; j++ {
		ranks := terms[j*4 : j*4+4]
		if _, err := Launch(f, "cap", ranks, mk(100_000), Options{}, func(Result) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	f.Eng.Run()
	if done != 3 {
		t.Errorf("completed jobs = %d, want 3", done)
	}
}

func TestSendrecvRingNoDeadlock(t *testing.T) {
	// Classic test: everyone Sendrecv around a ring with rendezvous-size
	// messages must not deadlock (nonblocking under the hood).
	hx, f := testFabric(t, false)
	n := 16
	b := NewBuilder(n)
	tag := int32(5)
	for r := 0; r < n; r++ {
		b.Progs[r].Sendrecv(Rank((r+1)%n), 1<<20, tag, Rank((r-1+n)%n), tag)
	}
	run(t, f, hx.Terminals()[:n], b.Progs)
}

func TestResultTiming(t *testing.T) {
	hx, f := testFabric(t, false)
	b := NewBuilder(2)
	b.Compute(2.5)
	res := run(t, f, hx.Terminals()[:2], b.Progs)
	if math.Abs(float64(res.Elapsed)-2.5) > 1e-9 {
		t.Errorf("elapsed = %v, want 2.5", res.Elapsed)
	}
}

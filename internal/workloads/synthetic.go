package workloads

import (
	"fmt"
	"slices"

	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/sim"
)

// IMB message-size ladder of Fig. 4: powers of two from 1 B to 4 MiB.
func IMBMessageSizes() []int64 {
	var out []int64
	for s := int64(1); s <= 4<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// IMBOps lists the single-mode MPI-1 collectives the paper measures
// (Fig. 4/5b) plus the two capacity-run extras of Sec. 4.4.2.
func IMBOps() []string {
	return []string{"bcast", "gather", "scatter", "reduce", "allreduce", "alltoall", "barrier"}
}

// imbIterations balances measurement amortization against simulation cost.
const imbIterations = 4

// BuildIMB constructs the Intel MPI Benchmarks kernel for one collective
// and message size: a warm-up round plus measured iterations. The
// Instance's Ops divides elapsed time into a per-operation latency.
func BuildIMB(op string, n int, size int64) (*Instance, error) {
	b := mpi.NewBuilder(n)
	iters := imbIterations
	one := func() error {
		switch op {
		case "bcast":
			b.Bcast(0, size)
		case "gather":
			b.Gather(0, size)
		case "scatter":
			b.Scatter(0, size)
		case "reduce":
			b.Reduce(0, size)
		case "allreduce":
			b.Allreduce(size)
		case "alltoall":
			b.Alltoall(size)
		case "barrier":
			b.Barrier()
		default:
			return fmt.Errorf("workloads: unknown IMB op %q", op)
		}
		return nil
	}
	for i := 0; i < iters; i++ {
		if err := one(); err != nil {
			return nil, err
		}
		if i == 0 {
			// Every iteration appends the ops of the first: grow each
			// rank's program once for the rest.
			for _, p := range b.Progs {
				p.Ops = slices.Grow(p.Ops, (iters-1)*len(p.Ops))
			}
		}
	}
	return &Instance{Progs: b.Progs, Ops: iters}, nil
}

// BuildMultiPingPong is IMB's Multi-PingPong (the capacity-run MuPP):
// ranks pair up (i, i+n/2) and ping-pong size-byte messages concurrently —
// the probe the paper used to find the 512 B PARX threshold (Sec. 3.2.4).
func BuildMultiPingPong(n int, size int64, iters int) *Instance {
	b := mpi.NewBuilder(n)
	half := n / 2
	for it := 0; it < iters; it++ {
		tag := b.NextTag()
		for i := 0; i < half; i++ {
			lo, hi := mpi.Rank(i), mpi.Rank(i+half)
			b.Progs[lo].Send(hi, size, tag)
			b.Progs[hi].Recv(lo, tag)
			b.Progs[hi].Send(lo, size, tag)
			b.Progs[lo].Recv(hi, tag)
		}
	}
	return &Instance{Progs: b.Progs, Ops: iters}
}

// BuildIncast is the congestion-diagnosis microbenchmark behind the
// paper's counter readouts: ranks 1..n-1 all stream size bytes to rank 0
// concurrently. With n = 8 on a fully populated plane this is the
// 7-to-1 incast of one TSUBAME2 switch's worth of nodes converging on a
// single HCA — the pattern whose PortXmitWait signature distinguishes hot
// Fat-Tree uplinks from spread HyperX load. It is the grouped incast with
// one group of all n ranks.
func BuildIncast(n int, size int64) (*Instance, error) { return BuildGroupedIncast(n, n, size) }

// BuildGroupedIncast runs concurrent shifted incasts: ranks are split into
// groups of `group`, and group g's non-root members all stream size bytes to
// the root of group (g+1) mod G. With group = 8 this is the paper's
// seven-nodes-per-switch pattern at fabric scale: every switch's worth of
// HCAs converges on a remote receiver, so a fat-tree funnels several
// incasts through shared downward links (hot uplink/downlink counters)
// while a HyperX spreads them across its direct dimension links.
func BuildGroupedIncast(n, group int, size int64) (*Instance, error) {
	if group < 2 || group > n {
		return nil, fmt.Errorf("workloads: incast group must be in [2, n], got %d with n = %d", group, n)
	}
	if n%group != 0 {
		return nil, fmt.Errorf("workloads: incast needs n %% group == 0, got n = %d group = %d", n, group)
	}
	b := mpi.NewBuilder(n)
	groups := n / group
	for it := 0; it < imbIterations; it++ {
		tag := b.NextTag()
		for g := 0; g < groups; g++ {
			root := mpi.Rank(((g + 1) % groups) * group)
			var handles []int32
			for i := 1; i < group; i++ {
				handles = append(handles, b.Progs[root].Irecv(mpi.Rank(g*group+i), tag))
			}
			for i := 1; i < group; i++ {
				b.Progs[g*group+i].Send(root, size, tag)
			}
			b.Progs[root].Wait(handles...)
		}
	}
	return &Instance{Progs: b.Progs, Ops: imbIterations}, nil
}

// BuildEmDL is the paper's modified IMB Allreduce mimicking deep-learning
// training (footnote 12): alternating a large allreduce with a 0.1 s
// compute phase.
func BuildEmDL(n int, iters int) *Instance {
	b := mpi.NewBuilder(n)
	const gradients = 32 << 20
	for it := 0; it < iters; it++ {
		b.Compute(0.1 * sim.Second)
		b.RingAllreduce(gradients)
	}
	return &Instance{Progs: b.Progs, Ops: iters}
}

// BaiduArrayLengths is Fig. 5a's ladder: 4-byte-float array lengths 0 to
// 2^29 (0 .. 2 GiB of payload).
func BaiduArrayLengths() []int64 {
	out := []int64{0, 32, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 8388608, 67108864, 536870912}
	return out
}

// BuildBaiduAllreduce is Baidu's DeepBench ring allreduce (CPU version):
// one ring allreduce of 4*arrayLen bytes; the paper reports average
// latency (Table 2: t_avg).
func BuildBaiduAllreduce(n int, arrayLen int64) *Instance {
	b := mpi.NewBuilder(n)
	size := 4 * arrayLen
	if size == 0 {
		// Zero-length still synchronizes.
		b.Barrier()
	} else {
		b.RingAllreduce(size)
	}
	return &Instance{Progs: b.Progs, Ops: 1}
}

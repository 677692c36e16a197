package mpi

import (
	"github.com/hpcsim/t2hx/internal/sim"
)

// ReduceBytePerSec is the local reduction throughput used to cost the
// arithmetic of Reduce/Allreduce steps (Westmere-class memory-bound
// summation).
const ReduceBytePerSec = 5e9

// AllreduceRingThreshold switches Allreduce from recursive doubling (low
// latency, log2 n rounds of full-size messages) to the bandwidth-optimal
// ring (2(n-1) steps of size/n), mirroring OpenMPI's tuned decision.
const AllreduceRingThreshold int64 = 64 * 1024

// Builder composes collective operations into per-rank programs. All
// builder methods expand the collective into point-to-point ops for every
// rank of the communicator, using a fresh tag so phases cannot
// cross-match. Group carves out sub-communicators (process-grid rows and
// columns, FFT pencils, ...) sharing the same tag space.
type Builder struct {
	Progs []*Program
	world []Rank
	tag   int32
}

// NewBuilder returns a builder for n ranks with empty programs.
func NewBuilder(n int) *Builder {
	b := &Builder{Progs: make([]*Program, n), world: make([]Rank, n)}
	for i := range b.Progs {
		b.Progs[i] = &Program{}
		b.world[i] = Rank(i)
	}
	return b
}

// N reports the communicator size.
func (b *Builder) N() int { return len(b.Progs) }

func (b *Builder) nextTag() int32 {
	b.tag++
	return b.tag
}

// NextTag hands out a fresh message tag; exported for packages composing
// custom point-to-point patterns (halo exchanges, pipelines) on top of
// Builder programs without colliding with collective tags.
func (b *Builder) NextTag() int32 { return b.nextTag() }

func reduceCost(bytes int64) sim.Duration {
	return sim.Duration(float64(bytes) / ReduceBytePerSec)
}

// Group is a sub-communicator: collective methods address virtual ranks
// 0..len-1 mapped onto the parent communicator's ranks.
type Group struct {
	b     *Builder
	ranks []Rank
}

// Group returns a sub-communicator over the given world ranks.
func (b *Builder) Group(ranks ...Rank) Group {
	return Group{b: b, ranks: ranks}
}

// N reports the group size.
func (g Group) N() int { return len(g.ranks) }

func (g Group) prog(v int) *Program { return g.b.Progs[g.ranks[v]] }
func (g Group) real(v int) Rank     { return g.ranks[v] }

// --- world-communicator wrappers ---

// Compute adds a computation phase of d to every rank.
func (b *Builder) Compute(d sim.Duration) {
	for _, p := range b.Progs {
		p.Compute(d)
	}
}

// Barrier is the dissemination barrier over the world communicator.
func (b *Builder) Barrier() { b.Group(b.world...).Barrier() }

// Bcast broadcasts size bytes from root over a binomial tree.
func (b *Builder) Bcast(root Rank, size int64) { b.Group(b.world...).Bcast(int(root), size) }

// Reduce reduces size bytes to root over a binomial tree.
func (b *Builder) Reduce(root Rank, size int64) { b.Group(b.world...).Reduce(int(root), size) }

// Allreduce picks recursive doubling for small payloads and the ring for
// large ones.
func (b *Builder) Allreduce(size int64) { b.Group(b.world...).Allreduce(size) }

// RingAllreduce forces the bandwidth-optimal ring (Baidu's DeepBench
// allreduce, Sec. 4.1).
func (b *Builder) RingAllreduce(size int64) { b.Group(b.world...).RingAllreduce(size) }

// Gather collects size bytes from every rank at root (linear).
func (b *Builder) Gather(root Rank, size int64) { b.Group(b.world...).Gather(int(root), size) }

// Scatter distributes size bytes from root to every rank (linear).
func (b *Builder) Scatter(root Rank, size int64) { b.Group(b.world...).Scatter(int(root), size) }

// Allgather is the ring algorithm over the world communicator.
func (b *Builder) Allgather(size int64) { b.Group(b.world...).Allgather(size) }

// Alltoall exchanges size bytes between every rank pair (pairwise).
func (b *Builder) Alltoall(size int64) { b.Group(b.world...).Alltoall(size) }

// --- group algorithms ---

// Barrier is the dissemination barrier: ceil(log2 n) rounds of 1-byte
// sendrecv with stride 2^k.
func (g Group) Barrier() {
	n := g.N()
	if n < 2 {
		return
	}
	for k := 1; k < n; k *= 2 {
		tag := g.b.nextTag()
		for v := 0; v < n; v++ {
			to := g.real((v + k) % n)
			from := g.real((v - k + n) % n)
			g.prog(v).Sendrecv(to, 1, tag, from, tag)
		}
	}
}

// Bcast broadcasts size bytes from virtual rank root over a binomial tree.
func (g Group) Bcast(root int, size int64) {
	n := g.N()
	if n < 2 || size <= 0 {
		return
	}
	tag := g.b.nextTag()
	for v := 0; v < n; v++ {
		r := (v + root) % n
		if v != 0 {
			parent := v & (v - 1)
			g.prog(r).Recv(g.real((parent+root)%n), tag)
		}
		low := v & (-v)
		if v == 0 {
			low = n
		}
		for k := 1; k < low && v+k < n; k *= 2 {
			g.prog(r).Send(g.real((v+k+root)%n), size, tag)
		}
	}
}

// Reduce reduces size bytes to virtual rank root over a binomial tree
// (reverse of Bcast) with per-step arithmetic cost.
func (g Group) Reduce(root int, size int64) {
	n := g.N()
	if n < 2 || size <= 0 {
		return
	}
	tag := g.b.nextTag()
	for v := n - 1; v >= 0; v-- {
		r := (v + root) % n
		low := v & (-v)
		if v == 0 {
			low = n
		}
		var ks []int
		for k := 1; k < low && v+k < n; k *= 2 {
			ks = append(ks, k)
		}
		for i := len(ks) - 1; i >= 0; i-- {
			g.prog(r).Recv(g.real((v+ks[i]+root)%n), tag)
			g.prog(r).Compute(reduceCost(size))
		}
		if v != 0 {
			parent := v & (v - 1)
			g.prog(r).Send(g.real((parent+root)%n), size, tag)
		}
	}
}

// Allreduce picks recursive doubling below AllreduceRingThreshold and the
// ring above.
func (g Group) Allreduce(size int64) {
	if size >= AllreduceRingThreshold && g.N() > 2 {
		g.RingAllreduce(size)
		return
	}
	g.RecursiveDoublingAllreduce(size)
}

// RecursiveDoublingAllreduce: log2 n rounds of full-size exchange; non
// power-of-two sizes use the standard pre/post folding steps.
func (g Group) RecursiveDoublingAllreduce(size int64) {
	n := g.N()
	if n < 2 || size <= 0 {
		return
	}
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	tag := g.b.nextTag()
	// Fold: ranks [0, 2*rem) pair up; odd ones send to even and idle.
	for i := 0; i < rem; i++ {
		hi, lo := 2*i+1, 2*i
		g.prog(hi).Send(g.real(lo), size, tag)
		g.prog(lo).Recv(g.real(hi), tag)
		g.prog(lo).Compute(reduceCost(size))
	}
	active := func(v int) int {
		if v < rem {
			return 2 * v
		}
		return v + rem
	}
	for k := 1; k < pof2; k *= 2 {
		tag := g.b.nextTag()
		for v := 0; v < pof2; v++ {
			peer := g.real(active(v ^ k))
			p := g.prog(active(v))
			p.Sendrecv(peer, size, tag, peer, tag)
			p.Compute(reduceCost(size))
		}
	}
	tag2 := g.b.nextTag()
	for i := 0; i < rem; i++ {
		hi, lo := 2*i+1, 2*i
		g.prog(lo).Send(g.real(hi), size, tag2)
		g.prog(hi).Recv(g.real(lo), tag2)
	}
}

// RingAllreduce is the bandwidth-optimal ring: a reduce-scatter ring of
// n-1 steps with size/n chunks followed by an allgather ring.
func (g Group) RingAllreduce(size int64) {
	n := g.N()
	if n < 2 || size <= 0 {
		return
	}
	chunk := size / int64(n)
	if chunk < 1 {
		chunk = 1
	}
	for phase := 0; phase < 2; phase++ {
		for step := 0; step < n-1; step++ {
			tag := g.b.nextTag()
			for v := 0; v < n; v++ {
				next := g.real((v + 1) % n)
				prev := g.real((v - 1 + n) % n)
				p := g.prog(v)
				hr := p.Irecv(prev, tag)
				hs := p.Isend(next, chunk, tag)
				p.Wait(hr, hs)
				if phase == 0 {
					p.Compute(reduceCost(chunk))
				}
			}
		}
	}
}

// Gather collects size bytes from every group rank at virtual root
// (linear, the OpenMPI basic algorithm at these communicator sizes).
func (g Group) Gather(root int, size int64) {
	n := g.N()
	if n < 2 || size <= 0 {
		return
	}
	tag := g.b.nextTag()
	rootProg := g.prog(root)
	var hs []int32
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		g.prog(v).Send(g.real(root), size, tag)
		hs = append(hs, rootProg.Irecv(g.real(v), tag))
	}
	rootProg.Wait(hs...)
}

// Scatter distributes size bytes from virtual root to every group rank
// (linear).
func (g Group) Scatter(root int, size int64) {
	n := g.N()
	if n < 2 || size <= 0 {
		return
	}
	tag := g.b.nextTag()
	rootProg := g.prog(root)
	var hs []int32
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		hs = append(hs, rootProg.Isend(g.real(v), size, tag))
		g.prog(v).Recv(g.real(root), tag)
	}
	rootProg.Wait(hs...)
}

// Allgather is the ring algorithm: n-1 steps forwarding size-byte blocks.
func (g Group) Allgather(size int64) {
	n := g.N()
	if n < 2 || size <= 0 {
		return
	}
	for step := 0; step < n-1; step++ {
		tag := g.b.nextTag()
		for v := 0; v < n; v++ {
			next := g.real((v + 1) % n)
			prev := g.real((v - 1 + n) % n)
			p := g.prog(v)
			hr := p.Irecv(prev, tag)
			hs := p.Isend(next, size, tag)
			p.Wait(hr, hs)
		}
	}
}

// Alltoall exchanges size bytes between every group rank pair with the
// pairwise algorithm: n-1 rounds, in round k rank v exchanges with
// (v+k) mod n and (v-k) mod n.
func (g Group) Alltoall(size int64) {
	n := g.N()
	if n < 2 || size <= 0 {
		return
	}
	for k := 1; k < n; k++ {
		tag := g.b.nextTag()
		for v := 0; v < n; v++ {
			to := g.real((v + k) % n)
			from := g.real((v - k + n) % n)
			g.prog(v).Sendrecv(to, size, tag, from, tag)
		}
	}
}

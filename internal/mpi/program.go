// Package mpi models MPI ranks as per-rank operation programs executed on a
// fabric: non-blocking point-to-point ops (Isend/Irecv/Wait), compute
// phases, and the collective algorithms OpenMPI-class libraries use at the
// paper's scales (binomial broadcast/reduce, recursive-doubling and ring
// allreduce, linear gather/scatter, ring allgather, pairwise alltoall,
// dissemination barrier). Collectives are expanded into point-to-point
// programs at build time, so the paper's traffic patterns hit the simulated
// network exactly as they would hit the real one.
package mpi

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/sim"
)

// Rank is an MPI rank within a job.
type Rank int32

// AnySource matches any sending rank (MPI_ANY_SOURCE).
const AnySource Rank = -1

// OpKind enumerates program operations.
type OpKind uint8

const (
	// OpISend posts a non-blocking send of Size bytes to Peer with Tag.
	OpISend OpKind = iota
	// OpIRecv posts a non-blocking receive from Peer (or AnySource) with
	// Tag.
	OpIRecv
	// OpWait blocks until all Handles have completed.
	OpWait
	// OpCompute blocks the rank for Dur of (jittered) computation.
	OpCompute
)

func (k OpKind) String() string {
	switch k {
	case OpISend:
		return "isend"
	case OpIRecv:
		return "irecv"
	case OpWait:
		return "wait"
	default:
		return "compute"
	}
}

// Op is one program step.
type Op struct {
	Kind    OpKind
	Peer    Rank
	Size    int64
	Tag     int32
	Handle  int32   // result handle of OpISend/OpIRecv
	Handles []int32 // OpWait
	Dur     sim.Duration
}

// Program is the op sequence of one rank.
type Program struct {
	Ops        []Op
	numHandles int32
}

// Isend appends a non-blocking send and returns its handle.
func (p *Program) Isend(dst Rank, size int64, tag int32) int32 {
	h := p.numHandles
	p.numHandles++
	p.Ops = append(p.Ops, Op{Kind: OpISend, Peer: dst, Size: size, Tag: tag, Handle: h})
	return h
}

// Irecv appends a non-blocking receive and returns its handle.
func (p *Program) Irecv(src Rank, tag int32) int32 {
	h := p.numHandles
	p.numHandles++
	p.Ops = append(p.Ops, Op{Kind: OpIRecv, Peer: src, Tag: tag, Handle: h})
	return h
}

// Wait appends a wait on the given handles.
func (p *Program) Wait(handles ...int32) {
	hs := append([]int32{}, handles...)
	p.Ops = append(p.Ops, Op{Kind: OpWait, Handles: hs})
}

// Send is a blocking send: Isend + Wait.
func (p *Program) Send(dst Rank, size int64, tag int32) {
	p.Wait(p.Isend(dst, size, tag))
}

// Recv is a blocking receive: Irecv + Wait.
func (p *Program) Recv(src Rank, tag int32) {
	p.Wait(p.Irecv(src, tag))
}

// Sendrecv posts both and waits for both (MPI_Sendrecv).
func (p *Program) Sendrecv(dst Rank, size int64, stag int32, src Rank, rtag int32) {
	hs := p.Isend(dst, size, stag)
	hr := p.Irecv(src, rtag)
	p.Wait(hs, hr)
}

// Compute appends a computation phase.
func (p *Program) Compute(d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("mpi: negative compute duration %v", d))
	}
	p.Ops = append(p.Ops, Op{Kind: OpCompute, Dur: d})
}

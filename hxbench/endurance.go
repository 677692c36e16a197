package main

import (
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// enduranceParams are the `t2hx -scale` machine and traffic: message i
// goes from terminal i mod n to terminal (i + Strides[i mod 8]) mod n, in
// graph order, with the strides spread evenly over [1, n-1]. The seed
// draws a relabelling of the lattice, applied to both ends of every
// message: a permutation of each dimension's coordinates and of the
// terminal slots on a switch. Such a relabelling is an automorphism of the
// HyperX and dimension-order routing commutes with it, so every seed
// submits different source/destination pairs that cost the fabric the same
// work, and runs on different seeds compare.
type enduranceParams struct {
	S            []int // HyperX lattice shape
	T            int   // terminals per switch
	Window       int   // in-flight messages
	UnitMessages int   // messages per unit; each unit is a fresh engine and fabric
	MsgBytes     int64
	Strides      []int
	CoordPerm    [][]int // CoordPerm[d][x] relabels coordinate x of dimension d
	SlotPerm     []int
	FabricSeed   uint64
}

func newEndurance(seed uint64) enduranceParams {
	p := enduranceParams{
		S: []int{12, 8}, T: 342,
		Window: 256, UnitMessages: 65536, MsgBytes: 64 << 10,
		FabricSeed: seed,
	}
	p.draw(seed, 8)
	return p
}

// terminals is the lattice's terminal count.
func (p enduranceParams) terminals() int {
	n := p.T
	for _, s := range p.S {
		n *= s
	}
	return n
}

// draw sets t2hx -scale's count strides and draws the relabelling from the
// seed.
func (p *enduranceParams) draw(seed uint64, count int) {
	n := p.terminals()
	if count > n-1 {
		count = n - 1
	}
	step := (n - 1) / count
	p.Strides = make([]int, count)
	for k := range p.Strides {
		p.Strides[k] = 1 + k*step
	}
	rng := splitmix(seed)
	p.CoordPerm = make([][]int, len(p.S))
	for d, s := range p.S {
		p.CoordPerm[d] = rng.perm(s)
	}
	p.SlotPerm = rng.perm(p.T)
}

type endurance struct {
	p  enduranceParams
	tb *route.Tables
	// relabel[j] is the terminal that stands in for graph terminal j.
	relabel []topo.NodeID
}

// enduranceRouting is the routing `t2hx -scale` defaults to.
const enduranceRouting = "hxmin"

// build is exp.RunScale's set-up: the lattice and its hxmin tables, built
// directly (the scale runner bypasses the table cache).
func (p enduranceParams) build(tr *tracer) (bench, error) {
	tr.begin(kBuildMachine)
	defer tr.end(kBuildMachine)
	tr.begin(kTopo)
	hx, err := topo.BuildHyperX(topo.HyperXConfig{
		S: p.S, T: p.T, Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
	tr.end(kTopo)
	if err != nil {
		return nil, err
	}
	tr.begin(kRoute)
	tb, err := route.HXMin(hx, 0)
	tr.end(kRoute)
	if err != nil {
		return nil, err
	}
	return &endurance{p: p, tb: tb, relabel: p.relabelling(hx)}, nil
}

// relabelling maps every terminal through the drawn permutations, using
// the lattice coordinates and slot each terminal carries.
func (p enduranceParams) relabelling(hx *topo.HyperX) []topo.NodeID {
	key := func(c []int) int {
		k := 0
		for d, s := range p.S {
			k = k*s + c[d]
		}
		return k*p.T + c[len(p.S)]
	}
	terms := hx.Graph.Terminals()
	byKey := make([]topo.NodeID, len(terms))
	for _, t := range terms {
		byKey[key(hx.Nodes[t].Coord)] = t
	}
	relabel := make([]topo.NodeID, len(terms))
	c := make([]int, len(p.S)+1)
	for j, t := range terms {
		tc := hx.Nodes[t].Coord
		for d := range p.S {
			c[d] = p.CoordPerm[d][tc[d]]
		}
		c[len(p.S)] = p.SlotPerm[tc[len(p.S)]]
		relabel[j] = byKey[key(c)]
	}
	return relabel
}

// unit runs UnitMessages messages through a closed window on a fresh
// engine and fabric: each delivery sends the next message from its window
// slot. The digest covers delivery order and simulated delivery times.
func (b *endurance) unit(tr *tracer) unitResult {
	p := b.p
	n := len(b.relabel)
	eng := sim.NewEngine()
	f := fabric.New(eng, b.tb, fabric.DefaultParams(), p.FabricSeed)
	total := uint64(p.UnitMessages)
	res := unitResult{ops: p.UnitMessages}
	h := newHasher()
	seen := make([]bool, total)
	var sent, dups uint64
	slot := make([]uint64, p.Window)
	onDelivered := make([]func(sim.Time), p.Window)
	send := func(k int) {
		if sent >= total {
			return
		}
		i := sent
		sent++
		slot[k] = i
		src := int(i % uint64(n))
		dst := (src + p.Strides[i%uint64(len(p.Strides))]) % n
		// Only the send is a layer boundary here: the delivery callbacks
		// are this generator, not MPI, and stay in the step's self time.
		tr.begin(kSend)
		f.Send(b.relabel[src], b.relabel[dst], p.MsgBytes, onDelivered[k])
		tr.end(kSend)
	}
	for k := range onDelivered {
		k := k
		onDelivered[k] = func(at sim.Time) {
			i := slot[k]
			if seen[i] {
				dups++
			}
			seen[i] = true
			h.word(i)
			h.float(float64(at))
			send(k)
		}
	}
	for k := 0; k < p.Window; k++ {
		send(k)
	}
	runSteps(eng, tr, []*fabric.Fabric{f}, &res.steps)
	res.digest = h.digest()

	res.counts.addMessenger(f)
	res.msgs = f.Delivered
	res.keep = f
	if dups > 0 {
		res.fail(int(dups), "endurance: %d deliveries of already-delivered messages", dups)
	}
	missing := 0
	for _, s := range seen {
		if !s {
			missing++
		}
	}
	if missing > 0 {
		res.fail(missing, "endurance: %d of %d messages never delivered", missing, total)
	}
	if f.Messages != total || !res.counts.lossless() || f.Bytes != float64(total)*float64(p.MsgBytes) {
		res.fail(res.ops, "endurance: submitted %d msgs/%.0f B, delivered %d msgs/%.0f B, want %d msgs",
			f.Messages, f.Bytes, f.Delivered, f.DeliveredBytes, total)
	}
	return res
}

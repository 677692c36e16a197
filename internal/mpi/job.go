package mpi

import (
	"fmt"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

// DefaultEagerThreshold is the eager/rendezvous protocol switch: messages
// below it are buffered and sent immediately (send completes locally);
// larger messages wait for the matching receive, OpenMPI-style.
const DefaultEagerThreshold int64 = 12 * 1024

// DefaultRendezvousDelay approximates the RTS/CTS handshake round trip of
// the rendezvous protocol.
const DefaultRendezvousDelay sim.Duration = 2400 * sim.Nanosecond

// Options tune job execution.
type Options struct {
	EagerThreshold  int64
	RendezvousDelay sim.Duration
	// ComputeJitterSigma is the lognormal sigma applied to every compute
	// phase, modelling OS noise and run-to-run variability (Sec. 4.4.5 ran
	// everything 10 times for exactly this reason). 0 disables jitter.
	ComputeJitterSigma float64
	// Seed drives the jitter stream.
	Seed uint64
}

// Result reports a finished job.
type Result struct {
	Start, End sim.Time
	// Elapsed is End-Start: the job's makespan.
	Elapsed sim.Duration
}

// Job is a set of rank programs bound to terminals, executing on a shared
// transport — a single-plane Fabric or a multi-plane MultiFabric; the MPI
// layer only needs the Messenger surface. Multiple jobs may run
// concurrently on one transport (the capacity evaluation of Sec. 4.4.2).
type Job struct {
	Name  string
	Ranks []topo.NodeID // rank -> terminal
	Progs []*Program

	f      fabric.Messenger
	opts   Options
	rng    *sim.Rand
	onDone func(Result)

	start   sim.Time
	pending int // ranks not yet finished
	state   []rankState
	result  Result
	done    bool
}

type rankState struct {
	pc        int
	blocked   bool
	completed []bool // per handle
	waiting   []int32

	// Matching state (this rank as receiver).
	posted    []postedRecv
	available []availMsg
}

type postedRecv struct {
	src    Rank
	tag    int32
	handle int32
}

// availMsg is a matchable message: either an eager message that already
// arrived, or a rendezvous RTS awaiting its receive.
type availMsg struct {
	src  Rank
	tag  int32
	size int64
	// rendezvous: the send completes at delivery.
	rendezvous bool
	sendHandle int32
}

// Launch starts a job on f at the current simulated time; onDone fires when
// every rank has finished its program. The returned Job can be inspected
// after completion.
func Launch(f fabric.Messenger, name string, ranks []topo.NodeID, progs []*Program, opts Options, onDone func(Result)) (*Job, error) {
	if len(ranks) != len(progs) {
		return nil, fmt.Errorf("mpi: %d ranks but %d programs", len(ranks), len(progs))
	}
	if opts.EagerThreshold == 0 {
		opts.EagerThreshold = DefaultEagerThreshold
	}
	if opts.RendezvousDelay == 0 {
		opts.RendezvousDelay = DefaultRendezvousDelay
	}
	j := &Job{
		Name: name, Ranks: ranks, Progs: progs,
		f: f, opts: opts, rng: sim.NewRand(opts.Seed ^ 0xa5a5a5a5),
		onDone:  onDone,
		start:   f.Engine().Now(),
		pending: len(ranks),
		state:   make([]rankState, len(ranks)),
	}
	for i := range j.state {
		j.state[i].completed = make([]bool, progs[i].numHandles)
	}
	for r := range ranks {
		j.advance(Rank(r))
	}
	j.checkDone()
	return j, nil
}

// Run executes a single job to completion on a fresh engine and returns its
// result — the capability-run entry point.
func Run(f fabric.Messenger, name string, ranks []topo.NodeID, progs []*Program, opts Options) (Result, error) {
	var res Result
	j, err := Launch(f, name, ranks, progs, opts, func(r Result) { res = r })
	if err != nil {
		return res, err
	}
	f.Engine().Run()
	if !j.done {
		return res, fmt.Errorf("mpi: job %q deadlocked: %s", name, j.stuckReport())
	}
	return res, nil
}

// stuckReport describes which ranks are blocked where (deadlock
// diagnostics). For a rank stuck in a Wait, it names the unfinished
// Isend/Irecv the wait covers.
func (j *Job) stuckReport() string {
	for r := range j.state {
		st := &j.state[r]
		if st.pc >= len(j.Progs[r].Ops) {
			continue
		}
		op := j.Progs[r].Ops[st.pc]
		if op.Kind == OpWait {
			for _, h := range op.Handles {
				if st.completed[h] {
					continue
				}
				for _, cand := range j.Progs[r].Ops {
					if (cand.Kind == OpISend || cand.Kind == OpIRecv) && cand.Handle == h {
						return fmt.Sprintf("rank %d blocked at op %d waiting for %v (peer=%d tag=%d size=%d)",
							r, st.pc, cand.Kind, cand.Peer, cand.Tag, cand.Size)
					}
				}
			}
		}
		return fmt.Sprintf("rank %d blocked at op %d (%v peer=%d tag=%d)",
			r, st.pc, op.Kind, op.Peer, op.Tag)
	}
	return "no blocked rank found"
}

// advance executes ops of rank r until it blocks or finishes.
func (j *Job) advance(r Rank) {
	st := &j.state[r]
	st.blocked = false
	prog := j.Progs[r]
	for st.pc < len(prog.Ops) {
		op := &prog.Ops[st.pc]
		switch op.Kind {
		case OpISend:
			st.pc++
			j.execSend(r, op)
		case OpIRecv:
			st.pc++
			j.execRecv(r, op)
		case OpWait:
			if j.allDone(st, op.Handles) {
				st.pc++
				continue
			}
			st.blocked = true
			st.waiting = op.Handles
			return
		case OpCompute:
			st.pc++
			d := op.Dur
			if j.opts.ComputeJitterSigma > 0 && d > 0 {
				d = sim.Duration(float64(d) * j.rng.LogNormalFactor(j.opts.ComputeJitterSigma))
			}
			st.blocked = true
			st.waiting = nil
			j.f.Engine().After(d, func(*sim.Engine) {
				j.advance(r)
				j.checkDone()
			})
			return
		}
	}
	// Program finished.
	j.pending--
}

func (j *Job) allDone(st *rankState, hs []int32) bool {
	for _, h := range hs {
		if !st.completed[h] {
			return false
		}
	}
	return true
}

// complete marks a handle done and unblocks the rank if it was waiting on
// it.
func (j *Job) complete(r Rank, h int32) {
	st := &j.state[r]
	st.completed[h] = true
	if st.blocked && st.waiting != nil && j.allDone(st, st.waiting) {
		st.pc++ // move past the satisfied Wait
		j.advance(r)
	}
	j.checkDone()
}

func (j *Job) checkDone() {
	if j.done || j.pending > 0 {
		return
	}
	j.done = true
	j.result = Result{
		Start:   j.start,
		End:     j.f.Engine().Now(),
		Elapsed: j.f.Engine().Now() - j.start,
	}
	if j.onDone != nil {
		j.onDone(j.result)
	}
}

// Done reports whether the job has finished.
func (j *Job) Done() bool { return j.done }

// execSend handles OpISend.
func (j *Job) execSend(r Rank, op *Op) {
	dst := op.Peer
	if dst < 0 || int(dst) >= len(j.Ranks) {
		panic(fmt.Sprintf("mpi: rank %d sends to invalid rank %d", r, dst))
	}
	if op.Size < j.opts.EagerThreshold {
		// Eager: local completion immediately; data flies now.
		j.state[r].completed[op.Handle] = true
		size, tag, src := op.Size, op.Tag, r
		j.f.Send(j.Ranks[r], j.Ranks[dst], size, func(sim.Time) {
			j.arrived(dst, availMsg{src: src, tag: tag, size: size})
		})
		return
	}
	// Rendezvous: announce, transfer when matched.
	j.arrived(dst, availMsg{src: r, tag: op.Tag, size: op.Size, rendezvous: true, sendHandle: op.Handle})
}

// execRecv handles OpIRecv: match available messages first, else post.
func (j *Job) execRecv(r Rank, op *Op) {
	st := &j.state[r]
	for i := range st.available {
		m := st.available[i]
		if matches(op.Peer, op.Tag, m.src, m.tag) {
			st.available = append(st.available[:i], st.available[i+1:]...)
			j.consume(r, m, op.Handle)
			return
		}
	}
	st.posted = append(st.posted, postedRecv{src: op.Peer, tag: op.Tag, handle: op.Handle})
}

// arrived is called when a message becomes matchable at receiver rank r:
// eager data delivery or rendezvous ready-to-send.
func (j *Job) arrived(r Rank, m availMsg) {
	st := &j.state[r]
	for i := range st.posted {
		p := st.posted[i]
		if matches(p.src, p.tag, m.src, m.tag) {
			st.posted = append(st.posted[:i], st.posted[i+1:]...)
			j.consume(r, m, p.handle)
			return
		}
	}
	st.available = append(st.available, m)
}

// consume completes the match: eager messages finish the recv immediately
// (the data is here); rendezvous messages start the bulk transfer.
func (j *Job) consume(r Rank, m availMsg, recvHandle int32) {
	if !m.rendezvous {
		j.complete(r, recvHandle)
		return
	}
	src := m.src
	sendHandle := m.sendHandle
	j.f.Engine().After(j.opts.RendezvousDelay, func(*sim.Engine) {
		j.f.Send(j.Ranks[src], j.Ranks[r], m.size, func(sim.Time) {
			j.complete(src, sendHandle)
			j.complete(r, recvHandle)
		})
	})
}

func matches(wantSrc Rank, wantTag int32, src Rank, tag int32) bool {
	return (wantSrc == AnySource || wantSrc == src) && wantTag == tag
}

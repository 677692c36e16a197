package flow

import (
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// This file property-tests the solver on randomized fabric/workload
// instances. After every engine step that leaves no settle pending, every
// live rate must match a from-scratch oracle, the allocation must pass the
// max-min certificate (oracle_test.go), the completion queue must hold
// exactly one prediction per in-flight flow, and each channel's ActiveHWM
// must equal the most flows seen on it; at the end of each run the bytes x
// hops conservation identity must hold, even when flows are cancelled
// mid-flight.

// propOp is one scheduled action of a generated workload: a flow start or
// a cancel of a previously started flow.
type propOp struct {
	at     sim.Time
	cancel bool
	idx    int
	size   float64
	path   []topo.ChannelID
}

// propInstance is a reproducible topology + workload pair. When nodeCap is
// positive, the run adds one node channel of that capacity per terminal at
// nodeAt, with IDs from nodeBase in terminal order, and flows started from
// nodeAt on cross them.
type propInstance struct {
	g        *topo.Graph
	ops      []propOp
	nflows   int
	nodeCap  float64
	nodeAt   sim.Time
	nodeBase topo.ChannelID
}

// randomWalkPath builds a loop-free multi-hop path from terminal a through
// the switch lattice to a random destination terminal: inject channel, 0-3
// switch-to-switch hops, deliver channel. It returns the path and the
// destination.
func randomWalkPath(r *sim.Rand, hx *topo.HyperX, a topo.NodeID) ([]topo.ChannelID, topo.NodeID) {
	g := hx.Graph
	p := []topo.ChannelID{g.Nodes[a].Ports[0].Channel(a)}
	cur := hx.SwitchOf(a)
	visited := map[topo.NodeID]bool{cur: true}
	hops := r.Intn(4)
	for h := 0; h < hops; h++ {
		var next []*topo.Link
		for _, l := range g.UpLinks(cur) {
			o := l.Other(cur)
			if g.Nodes[o].Kind == topo.Switch && !visited[o] {
				next = append(next, l)
			}
		}
		if len(next) == 0 {
			break
		}
		l := next[r.Intn(len(next))]
		p = append(p, l.Channel(cur))
		cur = l.Other(cur)
		visited[cur] = true
	}
	dsts := g.TerminalsOf(cur)
	b := dsts[r.Intn(len(dsts))]
	return append(p, g.Nodes[b].Ports[0].Channel(cur)), b
}

// genInstance derives a random small HyperX and a workload of 5-40 flows
// with staggered starts, mixed sizes (including zero-size header flows),
// and ~25% mid-flight cancels from one seed. About a third of the
// instances also get the fabric's channel shape: per-terminal node
// channels, added mid-run so the solver's per-channel arrays grow under
// live traffic, which every later flow enters through its source's node
// channel and leaves through its destination's (fabric.New and
// resilience.go build the same). A second random stream picks the node
// channels, so the topology and workload of every instance do not depend
// on whether it has them.
func genInstance(seed uint64) propInstance {
	r := sim.NewRand(seed)
	shapes := [][]int{{2, 2}, {3, 3}, {2, 4}, {4, 2}}
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: shapes[r.Intn(len(shapes))], T: 1 + r.Intn(3), Bandwidth: 1e6, Latency: 0,
	})
	terms := hx.Graph.Terminals()
	inst := propInstance{g: hx.Graph, nflows: 5 + r.Intn(36)}
	termIdx := map[topo.NodeID]topo.ChannelID{}
	nr := sim.NewRand(^seed)
	if nr.Intn(3) == 0 {
		inst.nodeCap = 1.5e6
		inst.nodeAt = sim.Time(nr.Float64() * 0.5)
		inst.nodeBase = topo.ChannelID(2 * len(hx.Graph.Links))
		for i, tm := range terms {
			termIdx[tm] = topo.ChannelID(i)
		}
	}
	for k := 0; k < inst.nflows; k++ {
		start := sim.Time(r.Float64() * 0.5)
		op := propOp{at: start, idx: k}
		if r.Float64() < 0.08 {
			// Zero-size header flow; path irrelevant.
			inst.ops = append(inst.ops, op)
			continue
		}
		op.size = math.Pow(10, 2+4*r.Float64())
		a := terms[r.Intn(len(terms))]
		path, b := randomWalkPath(r, hx, a)
		op.path = path
		if inst.nodeCap > 0 && start >= inst.nodeAt {
			op.path = append([]topo.ChannelID{inst.nodeBase + termIdx[a]}, path...)
			if b != a { // a loopback crosses its node channel once
				op.path = append(op.path, inst.nodeBase+termIdx[b])
			}
		}
		inst.ops = append(inst.ops, op)
		if r.Float64() < 0.25 {
			inst.ops = append(inst.ops, propOp{
				at: start + sim.Time(r.Float64()*0.5), cancel: true, idx: k,
			})
		}
	}
	return inst
}

// fabricHops counts the channels of a path that the counters see: node
// channels are host bandwidth, not cables, and carry no XmitData.
func fabricHops(cc *telemetry.ChannelCounters, path []topo.ChannelID) float64 {
	hops := 0
	for _, c := range path {
		if int(c) < len(cc.XmitData) {
			hops++
		}
	}
	return float64(hops)
}

// checkAgainstOracle compares the settled allocation with maxMinOracle
// (rates to 1e-9 relative, bottlenecks exactly), runs the certificate,
// checks that the completion queue holds exactly the in-flight flows, and
// raises seen[c] to the number of live flows on each fabric channel.
func checkAgainstOracle(t *testing.T, seed uint64, net *Network, seen []int32) {
	t.Helper()
	tab := &net.tab
	var live []int32
	for _, idx := range tab.liveList {
		if tab.zeroEv[idx] == 0 {
			live = append(live, idx)
			if !net.done.Contains(idx) {
				t.Errorf("seed %d t=%v: flow seq %d has no completion prediction", seed, net.eng.Now(), tab.seq[idx])
			}
		}
	}
	if got := net.done.Len(); got != net.Active() {
		t.Errorf("seed %d t=%v: completion queue holds %d predictions for %d flows",
			seed, net.eng.Now(), got, net.Active())
	}
	sort.Slice(live, func(i, j int) bool { return tab.seq[live[i]] < tab.seq[live[j]] })
	paths := make([][]topo.ChannelID, len(live))
	count := make([]int32, len(net.caps))
	for i, idx := range live {
		paths[i] = tab.path(idx)
		for _, c := range paths[i] {
			count[c]++
		}
	}
	rates, bott := maxMinOracle(net.caps, paths)
	now := net.eng.Now()
	for i, idx := range live {
		if !relClose(tab.rate[idx], rates[i], 1e-9, 0) {
			t.Errorf("seed %d t=%v: flow seq %d rate %v, oracle %v",
				seed, now, tab.seq[idx], tab.rate[idx], rates[i])
		}
		if tab.bott[idx] != bott[i] {
			t.Errorf("seed %d t=%v: flow seq %d bottleneck %d, oracle %d",
				seed, now, tab.seq[idx], tab.bott[idx], bott[i])
		}
	}
	if err := certifyMaxMin(net); err != nil {
		t.Errorf("seed %d t=%v: %v", seed, now, err)
	}
	for c := range seen {
		if count[c] > seen[c] {
			seen[c] = count[c]
		}
	}
}

// runPropInstance replays inst's ops on a fresh engine/network one event
// at a time, checking the allocation against the oracle after every step
// that leaves no settle pending, and ActiveHWM and conservation at the
// end. Cancels and starts are scheduled in generation order, so the
// engine's (time, seq) FIFO fixes their interleaving. movedHops is
// measured from flow state at each cancel/completion boundary,
// independently of the counters it is checked against.
func runPropInstance(t *testing.T, seed uint64, inst propInstance) {
	t.Helper()
	eng := sim.NewEngine()
	net := NewNetwork(eng, inst.g)
	cc := telemetry.NewChannelCounters(inst.g)
	net.SetCounters(cc)
	if inst.nodeCap > 0 {
		eng.Schedule(inst.nodeAt, func(*sim.Engine) {
			if first := net.AddNodeChannels(len(inst.g.Terminals()), inst.nodeCap); first != inst.nodeBase {
				t.Fatalf("seed %d: node channels start at %d, want %d", seed, first, inst.nodeBase)
			}
		})
	}

	var movedHops float64
	ids := make([]FlowID, inst.nflows)
	sizes := make([]float64, inst.nflows)
	for _, op := range inst.ops {
		op := op
		if op.cancel {
			eng.Schedule(op.at, func(*sim.Engine) {
				if idx, ok := net.lookup(ids[op.idx]); ok && net.tab.zeroEv[idx] == 0 {
					// Integrate up to now, then measure the partial bytes
					// this cancel strands: they must stay credited.
					net.advanceAll()
					movedHops += (sizes[op.idx] - net.tab.remaining[idx]) * fabricHops(cc, net.tab.path(idx))
				}
				net.Cancel(ids[op.idx])
			})
			continue
		}
		sizes[op.idx] = op.size
		eng.Schedule(op.at, func(*sim.Engine) {
			ids[op.idx] = net.Start(op.path, op.size, func(sim.Time) {
				movedHops += op.size * fabricHops(cc, op.path)
			})
		})
	}

	seen := make([]int32, len(cc.ActiveHWM))
	for eng.Step() {
		if net.settleEv == 0 {
			checkAgainstOracle(t, seed, net, seen)
		}
	}
	if net.Active() != 0 {
		t.Fatalf("seed %d: %d flows still active after drain", seed, net.Active())
	}
	for c, hwm := range cc.ActiveHWM {
		if hwm != seen[c] {
			t.Errorf("seed %d: channel %d ActiveHWM %d, most live flows seen %d", seed, c, hwm, seen[c])
		}
	}
	// Completed flows credit their full size, cancelled flows exactly
	// their partial bytes.
	if credited := cc.TotalXmitData(); !relClose(credited, movedHops, 1e-9, 1e-6) {
		t.Errorf("seed %d: counters credit %v bytes x hops, flows moved %v", seed, credited, movedHops)
	}
}

func relClose(a, b, relEps, absEps float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= absEps || d <= relEps*m
}

// TestSolverEquivalenceProperty is the acceptance property for the
// solver: on 120 randomized instances, every settled allocation matches
// the from-scratch oracle and passes the max-min certificate.
func TestSolverEquivalenceProperty(t *testing.T) {
	const instances = 120
	for seed := uint64(0); seed < instances; seed++ {
		runPropInstance(t, seed, genInstance(seed))
	}
}

// FuzzSolverEquivalence runs the property suite's check on the instance
// genInstance derives from a fuzzed seed. The committed corpus
// (testdata/fuzz/FuzzSolverEquivalence) holds seeds past the suite's 120,
// which go test runs as ordinary tests; make fuzz explores further.
func FuzzSolverEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) {
		runPropInstance(t, seed, genInstance(seed))
	})
}

// TestSolverMatchesOracleOnLargeComponents runs 300 flows between random
// terminal pairs, routed over DFSSSP tables, with mixed sizes and staggered
// starts on churnHX's 6x4 T=4 HyperX. One contention component then spans
// over 300 channels and a settled allocation has about 100 bottlenecks, far
// past the property suite's components and the strided "uniform" churn
// pairs' (at most 12 channels). After every settle the allocation must
// match the oracle, and the oracle must return bit-identical rates and
// bottlenecks when it visits the flows in reversed order: every flow frozen
// on a bottleneck subtracts the same share from each channel it crosses, so
// the order the flows freeze in changes no bit. Links run at the property
// suite's 1 MB/s rather than QDR's, because certifyMaxMin orders rates to
// 1e-9 absolute, below one ulp of a QDR-scale rate.
func TestSolverMatchesOracleOnLargeComponents(t *testing.T) {
	const (
		seed   = 1
		nflows = 300
	)
	hx := topo.NewHyperX(topo.HyperXConfig{S: []int{6, 4}, T: 4, Bandwidth: 1e6, Latency: 0})
	route := dfssspRouter(t, hx)
	terms := hx.Terminals()
	eng := sim.NewEngine()
	net := NewNetwork(eng, hx.Graph)
	r := sim.NewRand(seed)
	for k := 0; k < nflows; k++ {
		src, dst := terms[r.Intn(len(terms))], terms[r.Intn(len(terms))]
		if src == dst {
			continue
		}
		p, size := route(src, dst), math.Pow(10, 4+2*r.Float64())
		eng.Schedule(sim.Time(r.Float64()*0.05), func(*sim.Engine) {
			net.Start(p, size, func(sim.Time) {})
		})
	}
	seen := make([]int32, len(net.caps))
	isBott := make([]bool, len(net.caps))
	var maxChans, maxBotts int
	for eng.Step() {
		if net.settleEv != 0 {
			continue
		}
		checkAgainstOracle(t, seed, net, seen)
		for _, c := range net.comps {
			maxChans = max(maxChans, int(c.chanLen))
		}
		var live [][]topo.ChannelID
		clear(isBott)
		botts := 0
		for _, idx := range net.tab.liveList {
			live = append(live, net.tab.path(idx))
			if b := net.tab.bott[idx]; !isBott[b] {
				isBott[b] = true
				botts++
			}
		}
		maxBotts = max(maxBotts, botts)
		rates, bott := maxMinOracle(net.caps, live)
		slices.Reverse(live)
		revRates, revBott := maxMinOracle(net.caps, live)
		for i, j := 0, len(live)-1; j >= 0; i, j = i+1, j-1 {
			if rates[i] != revRates[j] || bott[i] != revBott[j] {
				t.Fatalf("t=%v: oracle froze flow %d at %v on %d in order, at %v on %d reversed",
					eng.Now(), i, rates[i], bott[i], revRates[j], revBott[j])
			}
		}
	}
	if maxChans < 250 || maxBotts < 60 {
		t.Errorf("largest component %d channels, most bottlenecks %d: want at least 250 and 60", maxChans, maxBotts)
	}
}

package exp

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/hpcsim/t2hx/internal/faults"
	"github.com/hpcsim/t2hx/internal/place"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// The degraded-topology survival sweep: the study the paper could not run
// on its production machine (which lived with 15 of 197 HyperX links
// broken). For every (engine × workload × failure count) cell it generates
// many seeded degradation variants, rides each through a full fault
// scenario (failures injected mid-run, SM re-sweeps), and records goodput,
// re-sweep latency, unreachable pairs and the deadlock-freedom margin as
// failures climb well past the paper's count.
//
// Each variant is a seeded topo.DegradeChain: an ordered failure chain
// whose every prefix keeps the switch fabric connected. One variant's
// chain is shared across all engines, workloads and failure counts, so
// cells differ incrementally — consecutive counts add exactly one link —
// and an engine's cells replaying the same prefix share its
// exp.TableCache entry (keyed by Graph.DownHash) instead of rebuilding
// tables per variant.

// DegradedWorkload names one workload column of a degraded sweep.
type DegradedWorkload struct {
	Name  string
	Build func(n int) (*workloads.Instance, error)
}

// DegradedSpec configures RunDegraded.
type DegradedSpec struct {
	// Engines lists the HyperX routing engines to compare (e.g. "dfsssp",
	// "hxmin", "hxnm").
	Engines   []string
	Workloads []DegradedWorkload
	// Counts are the failure counts swept; each is a prefix length of the
	// variant's chain. A count beyond what connectivity allows is clamped
	// (Planned records the clamp).
	Counts []int
	// Variants is the number of seeded chains per cell.
	Variants int
	Nodes    int
	Small    bool
	Seed     uint64
	// Detect/SweepLatency forward to the SM model; zero keeps defaults.
	Detect       sim.Duration
	SweepLatency sim.Duration
}

// DegradedResult is one variant's outcome.
type DegradedResult struct {
	Engine   string
	Workload string
	// Failures is the requested count; Planned what the chain could serve
	// (connectivity shortfall clamps).
	Failures int
	Planned  int
	Variant  int
	Seed     uint64
	// Survived is false when the faulted run wedged (a rank out of
	// retries) or the final-state rebuild failed; Err carries the cause.
	// That outcome is sweep data, not an infrastructure error.
	Survived bool
	Err      string

	Baseline sim.Duration
	Faulted  sim.Duration

	GoodputBefore float64
	GoodputDuring float64
	GoodputAfter  float64

	Sweeps         int
	RejectedSweeps int
	SweepP50       sim.Duration
	SweepMax       sim.Duration

	// Final-state table quality after all Planned failures: unreachable
	// (src, dst-LID) pairs, deadlock freedom, and the CDG cycle-slack
	// margin of the rebuilt tables.
	Unreachable  int
	DeadlockFree bool
	Margin       float64
}

// Slowdown is the makespan inflation the failures caused.
func (r DegradedResult) Slowdown() float64 {
	if r.Baseline == 0 || !r.Survived {
		return 0
	}
	return float64(r.Faulted)/float64(r.Baseline) - 1
}

// DegradedRow aggregates one (engine, workload, failure count) cell.
type DegradedRow struct {
	Engine   string
	Workload string
	Failures int
	Variants int
	Survived int

	SlowdownMed      float64
	GoodputDuringMed float64
	SweepP50Med      sim.Duration
	SweepMaxMax      sim.Duration
	UnreachableMean  float64
	UnreachableMax   int
	MarginMin        float64
	MarginMean       float64
}

func (spec DegradedSpec) validate() error {
	if len(spec.Engines) == 0 {
		return errors.New("exp: degraded sweep needs at least one engine")
	}
	if len(spec.Workloads) == 0 {
		return errors.New("exp: degraded sweep needs at least one workload")
	}
	if len(spec.Counts) == 0 {
		return errors.New("exp: degraded sweep needs at least one failure count")
	}
	for _, c := range spec.Counts {
		if c < 0 {
			return fmt.Errorf("exp: negative failure count %d", c)
		}
	}
	if spec.Variants <= 0 {
		return errors.New("exp: degraded sweep needs Variants > 0")
	}
	if spec.Nodes <= 0 {
		return errors.New("exp: degraded sweep needs Nodes > 0")
	}
	return nil
}

// degradedState shares the read-only per-sweep caches across cells: the
// per-engine machine pools (a machine is held by exactly one cell at a
// time and returned clean), the per-variant failure chains, and the
// per-(engine, workload) baselines. None of it affects cell values — a
// pool miss builds an identical machine, a chain cache miss recomputes the
// identical chain — which is what keeps -j 1 and -j N sweeps bit-identical.
type degradedState struct {
	spec DegradedSpec

	mu       sync.Mutex
	machines map[string][]*Machine
	chains   map[uint64][]topo.LinkID

	baselines [][]sim.Duration // [engine][workload]
}

func (st *degradedState) getMachine(engine string) (*Machine, error) {
	st.mu.Lock()
	free := st.machines[engine]
	if n := len(free); n > 0 {
		m := free[n-1]
		st.machines[engine] = free[:n-1]
		st.mu.Unlock()
		return m, nil
	}
	st.mu.Unlock()
	cmb := Combo{Name: "hyperx/" + engine, Topology: "hyperx", Routing: engine, Placement: place.Linear}
	return BuildMachine(cmb, MachineConfig{Small: st.spec.Small, Seed: st.spec.Seed})
}

func (st *degradedState) putMachine(engine string, m *Machine) {
	st.mu.Lock()
	st.machines[engine] = append(st.machines[engine], m)
	st.mu.Unlock()
}

// chainFor returns the variant's failure chain, computing it on the given
// (clean, exclusively held) machine graph on first use. Chains depend only
// on graph structure and seed, so the cache never changes values.
func (st *degradedState) chainFor(g *topo.Graph, vseed uint64, maxCount int) []topo.LinkID {
	st.mu.Lock()
	chain, ok := st.chains[vseed]
	st.mu.Unlock()
	if ok {
		return chain
	}
	// A shortfall returns the partial chain, to which larger counts clamp.
	chain, _ = topo.DegradeChain(g, maxCount, sim.NewRand(vseed))
	st.mu.Lock()
	if prev, ok := st.chains[vseed]; ok {
		chain = prev
	} else {
		st.chains[vseed] = chain
	}
	st.mu.Unlock()
	return chain
}

// RunDegraded executes the survival sweep over the runner's pool and
// returns one DegradedResult per (engine × workload × count × variant)
// cell, in that nesting order. Wedged variants come back with Survived ==
// false rather than failing the sweep; only infrastructure problems
// (machine builds, baseline runs) abort. Results depend only on spec —
// never on worker count.
func RunDegraded(r Runner, spec DegradedSpec) ([]DegradedResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	st := &degradedState{
		spec:     spec,
		machines: make(map[string][]*Machine),
		chains:   make(map[uint64][]topo.LinkID),
	}
	maxCount := 0
	for _, c := range spec.Counts {
		if c > maxCount {
			maxCount = c
		}
	}

	// Baselines: one fault-free run per (engine, workload), shared by every
	// variant of that pair. Sequential — the fan-out below dwarfs it.
	st.baselines = make([][]sim.Duration, len(spec.Engines))
	for ei, eng := range spec.Engines {
		m, err := st.getMachine(eng)
		if err != nil {
			return nil, fmt.Errorf("exp: degraded sweep machine for %s: %w", eng, err)
		}
		st.baselines[ei] = make([]sim.Duration, len(spec.Workloads))
		for wi, w := range spec.Workloads {
			base, err := runBaseline(m, spec.Nodes, spec.Seed, w.Build)
			if err != nil {
				return nil, fmt.Errorf("exp: degraded sweep baseline %s/%s: %w", eng, w.Name, err)
			}
			st.baselines[ei][wi] = base
		}
		st.putMachine(eng, m)
	}

	nW, nC, nV := len(spec.Workloads), len(spec.Counts), spec.Variants
	total := len(spec.Engines) * nW * nC * nV
	return ForEach(r, total,
		func(i int) string {
			ei, wi, ci, vi := degradedSplit(i, nW, nC, nV)
			return fmt.Sprintf("%s/%s f=%d v=%d",
				spec.Engines[ei], spec.Workloads[wi].Name, spec.Counts[ci], vi)
		},
		func(i int, _ uint64) (DegradedResult, error) {
			ei, wi, ci, vi := degradedSplit(i, nW, nC, nV)
			return st.runCell(ei, wi, ci, vi, maxCount)
		})
}

func degradedSplit(i, nW, nC, nV int) (ei, wi, ci, vi int) {
	vi = i % nV
	i /= nV
	ci = i % nC
	i /= nC
	wi = i % nW
	return i / nW, wi, ci, vi
}

// runCell executes one variant: inject the chain prefix mid-run, then
// analyze the final degraded state's rebuilt tables.
func (st *degradedState) runCell(ei, wi, ci, vi, maxCount int) (DegradedResult, error) {
	spec := st.spec
	engine := spec.Engines[ei]
	w := spec.Workloads[wi]
	count := spec.Counts[ci]
	vseed := CellSeed(spec.Seed, vi)
	res := DegradedResult{
		Engine: engine, Workload: w.Name,
		Failures: count, Variant: vi, Seed: vseed,
	}
	m, err := st.getMachine(engine)
	if err != nil {
		return res, err
	}
	defer st.putMachine(engine, m)

	chain := st.chainFor(m.G, vseed, maxCount)
	if count < len(chain) {
		chain = chain[:count]
	}
	res.Planned = len(chain)
	base := st.baselines[ei][wi]
	res.Baseline = base

	// The prefix's failures spread over the middle half of the baseline
	// makespan, timed by the (variant, count) seed so every engine and
	// workload sees the same timeline for a given variant.
	rng := sim.NewRand(CellSeed(vseed, 1+ci))
	times := make([]float64, len(chain))
	for i := range times {
		times[i] = rng.Float64()
	}
	sort.Float64s(times)
	sched := make(faults.Schedule, 0, len(chain))
	for i, id := range chain {
		at := sim.Time(base)/4 + sim.Time(float64(base/2)*times[i])
		sched = append(sched, faults.Event{At: at, Kind: faults.LinkDown, Link: id})
	}

	fr, runErr := RunFaultScenario(FaultSpec{
		Machine: m, Nodes: spec.Nodes, Seed: vseed,
		Detect: spec.Detect, Sweep: spec.SweepLatency,
		Build: w.Build, Schedule: sched, Baseline: base,
	})
	if fr != nil {
		res.Faulted = fr.Faulted
		res.GoodputBefore = fr.GoodputBefore
		res.GoodputDuring = fr.GoodputDuring
		res.GoodputAfter = fr.GoodputAfter
		res.Sweeps = len(fr.Sweeps)
		for _, s := range fr.Sweeps {
			if s.Rejected != nil {
				res.RejectedSweeps++
			}
		}
		if len(fr.Latencies) > 0 {
			lat := append([]sim.Duration(nil), fr.Latencies...)
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			res.SweepP50 = lat[len(lat)/2]
			res.SweepMax = lat[len(lat)-1]
		}
	}
	res.Survived = runErr == nil
	if runErr != nil {
		res.Err = runErr.Error()
	}

	// Final-state analysis: set the prefix down on the machine this cell
	// holds, rebuild through the table cache (keyed by Graph.DownHash), and
	// score reachability and deadlock margin of what the SM would run on.
	// The prefix goes back up before the machine returns to the pool.
	for _, id := range chain {
		m.G.Links[id].Down = true
	}
	tb, buildErr := m.Primary().Rebuild()
	if buildErr != nil {
		res.Survived = false
		if res.Err != "" {
			res.Err += "; "
		}
		res.Err += "final rebuild: " + buildErr.Error()
	} else {
		rep, verr := route.Validate(tb)
		if verr == nil {
			res.Unreachable = rep.Unreachable
			res.DeadlockFree = rep.DeadlockFree
		}
		res.Margin = route.DeadlockMargin(tb, route.DefaultMarginSamples)
	}
	for _, id := range chain {
		m.G.Links[id].Down = false
	}
	return res, nil
}

// SummarizeDegraded folds per-variant results into per-cell rows, in
// first-seen (engine, workload, count) order.
func SummarizeDegraded(results []DegradedResult) []DegradedRow {
	type cellKey struct {
		engine, workload string
		failures         int
	}
	order := make([]cellKey, 0)
	groups := make(map[cellKey][]DegradedResult)
	for _, r := range results {
		k := cellKey{r.Engine, r.Workload, r.Failures}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	rows := make([]DegradedRow, 0, len(order))
	for _, k := range order {
		g := groups[k]
		row := DegradedRow{
			Engine: k.engine, Workload: k.workload, Failures: k.failures,
			Variants: len(g), MarginMin: 1,
		}
		var slow, good, p50, unre, marg []float64
		for _, r := range g {
			unre = append(unre, float64(r.Unreachable))
			if r.Unreachable > row.UnreachableMax {
				row.UnreachableMax = r.Unreachable
			}
			marg = append(marg, r.Margin)
			if r.Margin < row.MarginMin {
				row.MarginMin = r.Margin
			}
			if !r.Survived {
				continue
			}
			row.Survived++
			slow = append(slow, r.Slowdown())
			good = append(good, r.GoodputDuring)
			p50 = append(p50, float64(r.SweepP50))
			if r.SweepMax > row.SweepMaxMax {
				row.SweepMaxMax = r.SweepMax
			}
		}
		row.SlowdownMed = Summarize(slow).Median
		row.GoodputDuringMed = Summarize(good).Median
		row.SweepP50Med = sim.Duration(Summarize(p50).Median)
		row.UnreachableMean = Summarize(unre).Mean
		row.MarginMean = Summarize(marg).Mean
		rows = append(rows, row)
	}
	return rows
}

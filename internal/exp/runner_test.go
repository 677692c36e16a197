package exp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/workloads"
)

func TestCellSeedDependsOnlyOnBaseAndIndex(t *testing.T) {
	if CellSeed(1, 0) == CellSeed(1, 1) {
		t.Fatal("adjacent cell seeds collide")
	}
	if CellSeed(1, 5) != CellSeed(1, 5) {
		t.Fatal("cell seed not a pure function")
	}
	if CellSeed(1, 5) == CellSeed(2, 5) {
		t.Fatal("base seed ignored")
	}
}

// miniSweepCells builds the determinism fixture the issue prescribes: all
// five paper combos × two workloads, three trials each, on the small
// degraded planes. cols receives each cell's final-trial collector so the
// caller can compare telemetry conservation sums across worker counts.
func miniSweepCells(cols []*telemetry.Collector) []SweepCell {
	type wl struct {
		name  string
		build func(n int) (*workloads.Instance, error)
	}
	wls := []wl{
		{"imb:alltoall", func(n int) (*workloads.Instance, error) { return workloads.BuildIMB("alltoall", n, 4096) }},
		{"incast", func(n int) (*workloads.Instance, error) { return workloads.BuildIncast(n, 4096) }},
	}
	const trials = 3
	var cells []SweepCell
	for _, combo := range PaperCombos() {
		for _, w := range wls {
			idx := len(cells)
			cells = append(cells, SweepCell{
				Label:  combo.Name + " " + w.name,
				Combo:  combo,
				Cfg:    MachineConfig{Small: true, Degrade: true, Seed: 7},
				Nodes:  16,
				Trials: trials,
				Build:  w.build,
				Attach: func(trial int, f fabric.Messenger) {
					if trial != trials-1 {
						return
					}
					if fb, ok := f.(*fabric.Fabric); ok {
						col := telemetry.New(fb.G, telemetry.Options{Counters: true})
						fb.AttachTelemetry(col)
						cols[idx] = col
					}
				},
			})
		}
	}
	return cells
}

// TestSweepDeterministicAcrossWorkers is the issue's acceptance test: the
// mini-sweep must produce byte-identical metric vectors and identical
// telemetry conservation sums at -j 1 and -j 8. Runs under -race in CI
// (make race covers ./internal/... and ./cmd/...).
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]SweepResult, []float64) {
		cols := make([]*telemetry.Collector, 10)
		cells := miniSweepCells(cols)
		res, err := RunSweep(Runner{Workers: workers, BaseSeed: 1}, cells)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]float64, len(cols))
		for i, col := range cols {
			if col == nil || col.Chans == nil {
				t.Fatalf("cell %d: no collector attached", i)
			}
			sums[i] = col.Chans.TotalXmitData()
		}
		return res, sums
	}
	seq, seqSums := run(1)
	par, parSums := run(8)

	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Label != par[i].Label || seq[i].Seed != par[i].Seed {
			t.Fatalf("cell %d identity differs: %q/%d vs %q/%d",
				i, seq[i].Label, seq[i].Seed, par[i].Label, par[i].Seed)
		}
		if len(seq[i].Vals) != len(par[i].Vals) {
			t.Fatalf("cell %d trial counts differ", i)
		}
		for k := range seq[i].Vals {
			a, b := math.Float64bits(seq[i].Vals[k]), math.Float64bits(par[i].Vals[k])
			if a != b {
				t.Errorf("cell %d (%s) trial %d: -j1 %x != -j8 %x",
					i, seq[i].Label, k, a, b)
			}
		}
		if math.Float64bits(seqSums[i]) != math.Float64bits(parSums[i]) {
			t.Errorf("cell %d (%s): conservation sum -j1 %v != -j8 %v",
				i, seq[i].Label, seqSums[i], parSums[i])
		}
		if seqSums[i] <= 0 {
			t.Errorf("cell %d (%s): conservation sum %v, want > 0", i, seq[i].Label, seqSums[i])
		}
	}
}

// messengerGraphs returns the graph of every plane a run's messenger
// drives, plane 0 first.
func messengerGraphs(f fabric.Messenger) []*topo.Graph {
	switch f := f.(type) {
	case *fabric.Fabric:
		return []*topo.Graph{f.G}
	case *fabric.MultiFabric:
		gs := make([]*topo.Graph, f.NumPlanes())
		for p := range gs {
			gs[p] = f.Plane(p).G
		}
		return gs
	}
	return nil
}

// RunSweep builds each distinct (combo, config) machine once and shares
// it: every cell of one machine runs on the same graphs, every plane is
// routed once (one table-cache lookup per plane of each distinct
// machine), no cell changes a shared graph's link state, and a PARX
// Demands config, which the machine cache cannot key, gets a machine of
// its own in every cell.
func TestRunSweepSharesMachines(t *testing.T) {
	const nodes, trials, reps = 8, 2, 2
	demands := make(core.Demands, 32) // the small planes' terminals
	for i := range demands {
		demands[i] = make([]uint8, 32)
	}
	demands[0][1] = 255
	cfgs := []MachineConfig{{Small: true, Degrade: true, Seed: 7}, {Small: true, Seed: 3}}
	build := func(n int) (*workloads.Instance, error) { return workloads.BuildIMB("alltoall", n, 4096) }

	type machineKey struct {
		combo string
		cfg   int // index into cfgs; -1 for the Demands config
	}
	var cells []SweepCell
	var keys []machineKey
	add := func(c Combo, cfg MachineConfig, k machineKey) {
		for rep := 0; rep < reps; rep++ {
			cells = append(cells, SweepCell{Label: fmt.Sprintf("%s cfg %d rep %d", c.Name, k.cfg, rep),
				Combo: c, Cfg: cfg, Nodes: nodes, Trials: trials, Build: build})
			keys = append(keys, k)
		}
	}
	for ci, cfg := range cfgs {
		for _, c := range AllCombos() {
			add(c, cfg, machineKey{c.Name, ci})
		}
	}
	parx := PaperCombos()[4]
	add(parx, MachineConfig{Small: true, Degrade: true, Seed: 7, Demands: demands}, machineKey{parx.Name, -1})

	graphs := make([][]*topo.Graph, len(cells)) // trial 0's planes
	downs := make([][]uint64, len(cells))       // their DownHash at attach
	for i := range cells {
		i := i
		cells[i].Attach = func(trial int, f fabric.Messenger) {
			gs := messengerGraphs(f)
			if trial > 0 {
				if !slices.Equal(gs, graphs[i]) {
					t.Errorf("%s: trial %d runs on other graphs than trial 0", cells[i].Label, trial)
				}
				return
			}
			graphs[i] = gs
			for _, g := range gs {
				downs[i] = append(downs[i], g.DownHash())
			}
		}
	}
	before := DefaultTableCache.Stats().Lookups()
	if _, err := RunSweep(Runner{Workers: 8, BaseSeed: 1}, cells); err != nil {
		t.Fatal(err)
	}
	lookups := DefaultTableCache.Stats().Lookups() - before

	first := map[machineKey][]*topo.Graph{}
	owner := map[*topo.Graph]int{} // first cell seen on each graph
	var wantLookups uint64
	for i, k := range keys {
		gs := graphs[i]
		if len(gs) == 0 {
			t.Fatalf("%s: Attach saw no graph", cells[i].Label)
		}
		shared, ok := first[k]
		switch {
		case k.cfg >= 0 && ok:
			if !slices.Equal(gs, shared) {
				t.Errorf("%s: runs on other graphs than %s", cells[i].Label, cells[owner[shared[0]]].Label)
			}
		default:
			// A newly built machine: its graphs are nobody else's.
			for _, g := range gs {
				if j, seen := owner[g]; seen {
					t.Errorf("%s: shares a graph with %s", cells[i].Label, cells[j].Label)
				}
				owner[g] = i
			}
			if k.cfg >= 0 {
				first[k] = gs
				wantLookups += uint64(len(gs))
			}
		}
		for p, g := range gs {
			if h := g.DownHash(); h != downs[i][p] {
				t.Errorf("%s: plane %d DownHash %#x after the sweep, %#x when the cell ran", cells[i].Label, p, h, downs[i][p])
			}
		}
	}
	if len(first) != len(cfgs)*len(AllCombos()) {
		t.Errorf("%d distinct shared machines, want %d", len(first), len(cfgs)*len(AllCombos()))
	}
	if lookups != wantLookups {
		t.Errorf("%d table-cache lookups, want %d: one per plane of each distinct machine", lookups, wantLookups)
	}
}

func TestRunnerFirstErrorCancels(t *testing.T) {
	var ran atomic.Int64
	cells := make([]Cell, 64)
	for i := range cells {
		i := i
		cells[i] = Cell{Label: fmt.Sprint(i), Run: func(uint64) (any, error) {
			ran.Add(1)
			if i == 0 {
				return nil, errors.New("boom")
			}
			return i, nil
		}}
	}
	_, err := Runner{Workers: 2}.Run(cells)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n == 64 {
		t.Error("error did not cancel the remaining queue")
	}
}

func TestRunnerResultOrder(t *testing.T) {
	out, err := ForEach(Runner{Workers: 4}, 32, nil, func(i int, seed uint64) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d (results must be index-ordered)", i, v, i*i)
		}
	}
}

func TestRunFaultBatchRejectsSharedMachine(t *testing.T) {
	m, err := BuildMachine(smallCombo(), MachineConfig{Small: true})
	if err != nil {
		t.Fatal(err)
	}
	build := func(n int) (*workloads.Instance, error) { return workloads.BuildIMB("alltoall", n, 1024) }
	_, err = RunFaultBatch(Runner{Workers: 2}, []FaultSpec{
		{Machine: m, Nodes: 8, Seed: 1, Build: build},
		{Machine: m, Nodes: 8, Seed: 2, Build: build},
	})
	if err == nil {
		t.Fatal("batch accepted two specs sharing one machine")
	}
}

func TestRunFaultBatchMatchesSequential(t *testing.T) {
	newSpec := func(seed uint64) FaultSpec {
		m, err := BuildMachine(smallCombo(), MachineConfig{Small: true, Degrade: false})
		if err != nil {
			t.Fatal(err)
		}
		return FaultSpec{
			Machine: m, Nodes: 12, Failures: 2, Seed: seed,
			Build: func(n int) (*workloads.Instance, error) { return workloads.BuildIMB("alltoall", n, 8192) },
		}
	}
	seqA, err := RunFaultScenario(newSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := RunFaultBatch(Runner{Workers: 2}, []FaultSpec{newSpec(3), newSpec(4)})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Faulted != seqA.Faulted || batch[0].Baseline != seqA.Baseline {
		t.Fatalf("batched scenario differs from sequential: %+v vs %+v", batch[0], seqA)
	}
}

package exp

import (
	"math"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/workloads"
)

func TestPaperCombosMatchSection443(t *testing.T) {
	cs := PaperCombos()
	if len(cs) != 5 {
		t.Fatalf("combos = %d, want 5", len(cs))
	}
	want := []string{
		"Fat-Tree / ftree / linear",
		"Fat-Tree / SSSP / clustered",
		"HyperX / DFSSSP / linear",
		"HyperX / DFSSSP / random",
		"HyperX / PARX / clustered",
	}
	for i, c := range cs {
		if c.Name != want[i] {
			t.Errorf("combo[%d] = %q, want %q", i, c.Name, want[i])
		}
	}
}

func TestBuildMachineSmallAllCombos(t *testing.T) {
	for _, c := range PaperCombos() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			m, err := BuildMachine(c, MachineConfig{Small: true, Degrade: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if m.G.NumTerminals() != 32 {
				t.Errorf("terminals = %d, want 32", m.G.NumTerminals())
			}
			f, err := m.NewFabric(1)
			if err != nil {
				t.Fatal(err)
			}
			// Only the bfo PML, which PARX machines run, adds its
			// penalty to a send, a loopback one included.
			want := f.Params.SendOverhead
			if c.Routing == "parx" {
				want += f.Params.BFOPenalty
			}
			want += f.Params.RecvOverhead
			tm := m.G.Terminals()[0]
			var at sim.Time
			f.Send(tm, tm, 0, func(t sim.Time) { at = t })
			f.Eng.Run()
			if at != want {
				t.Errorf("loopback send took %v, want %v (bfo PML iff PARX)", at, want)
			}
			ranks, err := m.Place(8, 42)
			if err != nil {
				t.Fatal(err)
			}
			if len(ranks) != 8 {
				t.Errorf("placed %d ranks", len(ranks))
			}
		})
	}
}

func TestBuildMachineRejectsMismatches(t *testing.T) {
	if _, err := BuildMachine(Combo{Topology: "hyperx", Routing: "ftree"}, MachineConfig{Small: true}); err == nil {
		t.Error("ftree on HyperX accepted")
	}
	if _, err := BuildMachine(Combo{Topology: "fattree", Routing: "parx"}, MachineConfig{Small: true}); err == nil {
		t.Error("PARX on Fat-Tree accepted")
	}
	if _, err := BuildMachine(Combo{Topology: "mesh"}, MachineConfig{Small: true}); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestSummarizeStats(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.N != 5 {
		t.Errorf("stats = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %v/%v, want 2/4", s.Q1, s.Q3)
	}
	if s.Mean != 3 {
		t.Errorf("mean = %v", s.Mean)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Error("empty stats")
	}
}

func TestGainDirections(t *testing.T) {
	// Lower is better: candidate twice as fast -> gain +1.
	if g := Gain(10, 5, workloads.LowerIsBetter); math.Abs(g-1) > 1e-12 {
		t.Errorf("gain = %v, want 1", g)
	}
	// Candidate twice as slow -> gain -0.5.
	if g := Gain(10, 20, workloads.LowerIsBetter); math.Abs(g+0.5) > 1e-12 {
		t.Errorf("gain = %v, want -0.5", g)
	}
	// Higher is better: +20%.
	if g := Gain(100, 120, workloads.HigherIsBetter); math.Abs(g-0.2) > 1e-12 {
		t.Errorf("gain = %v, want 0.2", g)
	}
	if Gain(0, 5, workloads.LowerIsBetter) != 0 {
		t.Error("zero baseline must not divide")
	}
}

func TestStatsBest(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.Best(workloads.LowerIsBetter) != 1 {
		t.Error("best of lower-is-better should be min")
	}
	if s.Best(workloads.HigherIsBetter) != 3 {
		t.Error("best of higher-is-better should be max")
	}
}

func TestRunTrialsProducesJitteredValues(t *testing.T) {
	m, err := BuildMachine(PaperCombos()[2], MachineConfig{Small: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	vals, inst, err := RunTrials(TrialSpec{
		Machine: m, Nodes: 8, Trials: 4, Seed: 11, Jitter: 0.03,
		Build: func(n int) (*workloads.Instance, error) {
			return workloads.BuildIMB("allreduce", n, 4096)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 || inst == nil {
		t.Fatalf("got %d trials", len(vals))
	}
	distinct := false
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[0] {
			distinct = true
		}
	}
	if !distinct {
		t.Error("jittered trials all identical")
	}
}

func TestRunTrialsDeterministicWithoutJitter(t *testing.T) {
	m, err := BuildMachine(PaperCombos()[4], MachineConfig{Small: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	build := func(n int) (*workloads.Instance, error) {
		return workloads.BuildIMB("bcast", n, 1024)
	}
	a, _, err := RunTrials(TrialSpec{Machine: m, Nodes: 8, Trials: 1, Seed: 5, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunTrials(TrialSpec{Machine: m, Nodes: 8, Trials: 1, Seed: 5, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Errorf("same seed gave %v vs %v", a[0], b[0])
	}
}

// The headline behaviour at small scale: for large messages between
// adjacent switches, PARX's multi-path routing should beat single-path
// DFSSSP on the same HyperX when the traffic saturates one cable.
func TestPARXBeatsDFSSSPOnAdjacentAlltoall(t *testing.T) {
	build := func(n int) (*workloads.Instance, error) {
		return workloads.BuildIMB("alltoall", n, 1<<20)
	}
	var lat [2]float64
	for i, combo := range []Combo{PaperCombos()[2], PaperCombos()[4]} {
		m, err := BuildMachine(combo, MachineConfig{Small: true, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Linear placement on the small HyperX puts 4 ranks on two
		// adjacent switches.
		vals, inst, err := RunTrials(TrialSpec{Machine: m, Nodes: 4, Trials: 1, Seed: 5,
			Build: build})
		if err != nil {
			t.Fatal(err)
		}
		_ = inst
		lat[i] = vals[0]
	}
	if lat[1] >= lat[0] {
		t.Errorf("PARX alltoall latency %v >= DFSSSP %v; non-minimal paths gave no benefit", lat[1], lat[0])
	}
}

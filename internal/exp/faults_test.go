package exp

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// Every combo's engine must survive a mid-run failure burst on the small
// planes: all messages delivered, sweeps validated, graph restored.
func TestRunFaultScenarioAllCombos(t *testing.T) {
	for _, c := range PaperCombos() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			m, err := BuildMachine(c, MachineConfig{Small: true, Degrade: true, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			downBefore := make([]bool, len(m.G.Links))
			for i, l := range m.G.Links {
				downBefore[i] = l.Down
			}
			res, err := RunFaultScenario(FaultSpec{
				Machine:  m,
				Nodes:    len(m.G.Terminals()),
				Failures: 2,
				Seed:     5,
				Detect:   50 * sim.Microsecond,
				Sweep:    100 * sim.Microsecond,
				Build: func(n int) (*workloads.Instance, error) {
					return workloads.BuildIMB("alltoall", n, 32<<10)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.GiveUps != 0 {
				t.Errorf("%d messages lost", res.GiveUps)
			}
			if res.Delivered != res.Messages {
				t.Errorf("delivered %d of %d messages", res.Delivered, res.Messages)
			}
			if res.Faulted < res.Baseline {
				t.Errorf("faulted makespan %v beat baseline %v", res.Faulted, res.Baseline)
			}
			if len(res.Sweeps) == 0 {
				t.Fatal("no sweeps recorded")
			}
			for _, s := range res.Sweeps {
				if s.Rejected != nil {
					t.Errorf("sweep rejected: %v", s.Rejected)
				}
				if !s.Validated || !s.DeadlockFree {
					t.Errorf("sweep not validated deadlock-free: %+v", s)
				}
			}
			if len(res.Latencies) == 0 || res.SweepStats().Max <= 0 {
				t.Error("no successful sweep latencies recorded")
			}
			if res.GoodputBefore <= 0 || res.GoodputAfter <= 0 {
				t.Errorf("goodput windows empty: before=%.3g during=%.3g after=%.3g",
					res.GoodputBefore, res.GoodputDuring, res.GoodputAfter)
			}
			for i, l := range m.G.Links {
				if l.Down != downBefore[i] {
					t.Fatalf("link %d Down state not restored", i)
				}
			}
			// The machine's own tables must still be the pre-fault ones.
			if m.Tables.G != m.G {
				t.Error("machine tables replaced")
			}
		})
	}
}

func TestDefaultFailures(t *testing.T) {
	small, err := BuildMachine(PaperCombos()[2], MachineConfig{Small: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := DefaultFailures(small); got != smallMachineFailures {
		t.Errorf("small default = %d, want %d", got, smallMachineFailures)
	}
	// A plane-list combo names no Topology: the count follows the primary
	// plane, the one the scenario faults.
	hx := PlaneSpec{Topology: "hyperx", Routing: "hxmin"}
	ft := PlaneSpec{Topology: "fattree", Routing: "ftree"}
	for _, c := range []struct {
		planes []PlaneSpec
		want   int
	}{
		{[]PlaneSpec{hx, ft}, topo.PaperHyperXMissingAOCs},
		{[]PlaneSpec{ft, hx}, topo.PaperFatTreeMissingLinks},
	} {
		m, err := BuildMachine(Combo{Name: "planes", Planes: c.planes}, MachineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got := DefaultFailures(m); got != c.want {
			t.Errorf("primary plane %s: default = %d, want %d", c.planes[0].Label(), got, c.want)
		}
	}
}

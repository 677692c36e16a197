package faults

import (
	"errors"
	"reflect"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
)

func snapshotDown(g *topo.Graph) []bool {
	out := make([]bool, len(g.Links))
	for i, l := range g.Links {
		out[i] = l.Down
	}
	return out
}

func TestPlanLinkFailuresPaperCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *topo.Graph
		n    int
	}{
		{"hyperx-15", topo.NewPaperHyperX(false, 1).Graph, topo.PaperHyperXMissingAOCs},
		{"fattree-197", topo.NewPaperFatTree(false, 1).Graph, topo.PaperFatTreeMissingLinks},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := snapshotDown(tc.g)
			sched, err := PlanLinkFailures(tc.g, tc.n, 1*sim.Millisecond, 10*sim.Millisecond, 42)
			if err != nil {
				t.Fatalf("plan failed: %v", err)
			}
			if len(sched) != tc.n {
				t.Fatalf("planned %d failures, want %d", len(sched), tc.n)
			}
			if !reflect.DeepEqual(before, snapshotDown(tc.g)) {
				t.Error("planning modified the graph's Down flags")
			}
			last := sim.Time(0)
			seen := make(map[topo.LinkID]bool)
			for _, ev := range sched {
				if ev.Kind != LinkDown {
					t.Fatalf("unexpected event kind %v", ev.Kind)
				}
				if ev.At < 1*sim.Millisecond || ev.At >= 11*sim.Millisecond {
					t.Errorf("event %v outside window", ev)
				}
				if ev.At < last {
					t.Error("schedule not time-ordered")
				}
				last = ev.At
				if seen[ev.Link] {
					t.Errorf("link %d chosen twice", ev.Link)
				}
				seen[ev.Link] = true
				if l := tc.g.Links[ev.Link]; l.Down {
					t.Errorf("planned failure of already-down link %d", ev.Link)
				}
			}
			// The full set down must keep the switch fabric connected.
			for _, ev := range sched {
				tc.g.Links[ev.Link].Down = true
			}
			if !topo.SwitchFabricConnected(tc.g) {
				t.Error("planned failure set disconnects the switch fabric")
			}
			for _, ev := range sched {
				tc.g.Links[ev.Link].Down = false
			}
		})
	}
}

func TestPlanLinkFailuresDeterministic(t *testing.T) {
	g1 := topo.NewPaperHyperX(false, 1).Graph
	g2 := topo.NewPaperHyperX(false, 1).Graph
	s1, err1 := PlanLinkFailures(g1, 15, 0, sim.Second, 7)
	s2, err2 := PlanLinkFailures(g2, 15, 0, sim.Second, 7)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("same seed produced different schedules")
	}
	s3, err := PlanLinkFailures(g1, 15, 0, sim.Second, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestPlanLinkFailuresShortfall(t *testing.T) {
	hx := topo.NewHyperX(topo.HyperXConfig{S: []int{2, 2}, T: 1, Bandwidth: 1e9, Latency: 1e-7})
	n := len(hx.LiveSwitchLinks())
	sched, err := PlanLinkFailures(hx.Graph, n, 0, sim.Second, 3)
	if !errors.Is(err, topo.ErrDegradeShortfall) {
		t.Fatalf("err = %v, want ErrDegradeShortfall", err)
	}
	if len(sched) == 0 || len(sched) >= n {
		t.Errorf("partial schedule has %d events, want in (0, %d)", len(sched), n)
	}
	for _, l := range hx.Links {
		if l.Down {
			t.Fatal("planning left links down")
		}
	}
}

// Runtime failure plans and the paper planes' broken cables come from the
// same planner: on a pristine paper HyperX, a 15-link plan fails exactly
// the links NewPaperHyperX degrades with the same seed.
func TestPlanLinkFailuresMatchesPaperDegradation(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		g := topo.NewPaperHyperX(false, 0).Graph
		sched, err := PlanLinkFailures(g, topo.PaperHyperXMissingAOCs, 0, sim.Second, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, ev := range sched {
			g.Links[ev.Link].Down = true
		}
		paper := topo.NewPaperHyperX(true, seed).Graph
		if !reflect.DeepEqual(snapshotDown(g), snapshotDown(paper)) {
			t.Errorf("seed %d: planned down set (hash %#x) differs from the paper degradation (hash %#x)",
				seed, g.DownHash(), paper.DownHash())
		}
	}
}

func TestScheduleSorted(t *testing.T) {
	s := Schedule{
		{At: 3, Kind: LinkDown, Link: 1},
		{At: 1, Kind: LinkDown, Link: 2},
		{At: 3, Kind: LinkUp, Link: 3},
		{At: 2, Kind: LinkDown, Link: 4},
	}
	got := s.Sorted()
	wantOrder := []topo.LinkID{2, 4, 1, 3} // stable: link 1 before link 3 at t=3
	for i, ev := range got {
		if ev.Link != wantOrder[i] {
			t.Fatalf("order %v, want links %v", got, wantOrder)
		}
	}
	if s[0].Link != 1 {
		t.Error("Sorted mutated the receiver")
	}
}

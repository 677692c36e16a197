package fabric

import (
	"slices"
	"testing"

	"github.com/hpcsim/t2hx/internal/core"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

func adaptiveFixture(t *testing.T) (*topo.HyperX, *Fabric) {
	t.Helper()
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: []int{6, 4}, T: 7,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
	tb, err := core.PARX(hx, core.Config{MaxVL: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := New(sim.NewEngine(), tb, DefaultParams(), 1)
	if err := f.EnableAdaptive(hx); err != nil {
		t.Fatal(err)
	}
	// Counters on, so the test can read the channels' concurrent-flow
	// high-watermark.
	f.AttachTelemetry(telemetry.New(hx.Graph, telemetry.Options{Counters: true}))
	return hx, f
}

func TestAdaptiveSpreadsConcurrentFlows(t *testing.T) {
	hx, f := adaptiveFixture(t)
	if f.pml != adaptive {
		t.Fatalf("PML = %d, want adaptive", f.pml)
	}
	// 7 concurrent large flows between two adjacent switches: adaptive
	// selection must not put all of them on the same first channel.
	a := hx.TerminalsOf(hx.SwitchAt(0, 0))
	b := hx.TerminalsOf(hx.SwitchAt(1, 0))
	var last sim.Time
	for i := range a {
		f.Send(a[i], b[i], 4<<20, func(at sim.Time) {
			if at > last {
				last = at
			}
		})
	}
	// All 7 on one cable would give occupancy 7 on that channel; adaptive
	// must do better. The flows are pending (nothing decremented yet), so
	// the instantaneous occupancy equals the high-watermark.
	if occ := slices.Max(f.Tel.Chans.ActiveHWM); occ == 0 || occ >= 7 {
		t.Errorf("adaptive routing stacked %d flows on one channel", occ)
	}
	f.Eng.Run()
	// 7 x 4 MiB over one 3.2 GiB/s cable would take ~8.5 ms; spreading
	// over >= 3 distinct paths must finish well under that.
	static := 7.0 * float64(4<<20) / topo.QDRBandwidth
	if float64(last) > 0.8*static {
		t.Errorf("adaptive completion %v not clearly better than static %v", last, static)
	}
}

func TestAdaptiveBeatsStaticPARXOnHotspot(t *testing.T) {
	// The paper's Sec. 7 expectation: true adaptive routing beats the
	// static PARX prototype. Compare the same 7-pair hotspot under bfo
	// (static Table-1 choice) and adaptive selection.
	run := func(adaptive bool) sim.Time {
		hx := topo.NewHyperX(topo.HyperXConfig{
			S: []int{6, 4}, T: 7,
			Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
		})
		tb, err := core.PARX(hx, core.Config{MaxVL: 8})
		if err != nil {
			t.Fatal(err)
		}
		f := New(sim.NewEngine(), tb, DefaultParams(), 1)
		if adaptive {
			if err := f.EnableAdaptive(hx); err != nil {
				t.Fatal(err)
			}
		} else if err := f.EnableBFO(hx, 0); err != nil {
			t.Fatal(err)
		}
		a := hx.TerminalsOf(hx.SwitchAt(0, 0))
		b := hx.TerminalsOf(hx.SwitchAt(1, 0))
		var last sim.Time
		for i := range a {
			f.Send(a[i], b[i], 4<<20, func(at sim.Time) {
				if at > last {
					last = at
				}
			})
		}
		f.Eng.Run()
		return last
	}
	static := run(false)
	adapt := run(true)
	if adapt >= static {
		t.Errorf("adaptive %v not faster than static PARX %v on the hotspot", adapt, static)
	}
}

func TestAdaptiveFallsBackOnLMC0(t *testing.T) {
	// With single-LID tables adaptive selection degenerates to static
	// routing but must still deliver.
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: []int{4, 4}, T: 2, Bandwidth: 1e9, Latency: 1e-7,
	})
	tb, err := route.DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := New(sim.NewEngine(), tb, Params{}, 1)
	if err := f.EnableAdaptive(hx); err != nil {
		t.Fatal(err)
	}
	var done bool
	f.Send(hx.Terminals()[0], hx.Terminals()[9], 1024, func(sim.Time) { done = true })
	f.Eng.Run()
	if !done {
		t.Error("message not delivered under LMC=0 adaptive fallback")
	}
}

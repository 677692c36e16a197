package faults

import (
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/route"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// testRig is a small HyperX running an Alltoall under DFSSSP.
type testRig struct {
	hx  *topo.HyperX
	f   *fabric.Fabric
	eng *sim.Engine
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	hx := topo.NewHyperX(topo.HyperXConfig{
		S: []int{4, 4}, T: 2,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
	tb, err := route.DFSSSP(hx.Graph, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	return &testRig{hx: hx, f: fabric.New(eng, tb, fabric.DefaultParams(), 1)}
}

func (r *testRig) rebuild() (*route.Tables, error) { return route.DFSSSP(r.hx.Graph, 0, 8) }

// runAlltoall launches the collective and runs the engine to completion,
// returning the job makespan.
func runAlltoall(t *testing.T, r *testRig, size int64) sim.Duration {
	t.Helper()
	inst, err := workloads.BuildIMB("alltoall", len(r.hx.Terminals()), size)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.Run(r.f, "alltoall", r.hx.Terminals(), inst.Progs, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Elapsed
}

// A link failing in the middle of a running Alltoall must tear down the
// flows crossing it, trigger exactly one validated sweep, and still let
// every rank finish — no wedged ops, no lost messages.
func TestSMRecoversAlltoallFromLinkFailure(t *testing.T) {
	baseline := runAlltoall(t, newRig(t), 64<<10)

	r := newRig(t)
	m, err := NewManager(r.f, SMConfig{
		DetectionDelay: 50 * sim.Microsecond,
		SweepLatency:   100 * sim.Microsecond,
		Rebuild:        r.rebuild,
		Revalidate:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := PlanLinkFailures(r.hx.Graph, 2, sim.Time(baseline)/4, sim.Duration(baseline)/4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Inject(sched); err != nil {
		t.Fatal(err)
	}
	faulted := runAlltoall(t, r, 64<<10) // mpi.Run errors on any wedged rank

	if m.Injected != 2 {
		t.Fatalf("applied %d events, want 2", m.Injected)
	}
	if len(m.Sweeps) == 0 {
		t.Fatal("SM never swept")
	}
	for _, s := range m.Sweeps {
		if s.Rejected != nil {
			t.Errorf("sweep rejected: %v", s.Rejected)
		}
		if !s.Validated || !s.DeadlockFree {
			t.Errorf("sweep not validated deadlock-free: %+v", s)
		}
		if s.Unreachable != 0 {
			t.Errorf("link failure stranded %d pairs", s.Unreachable)
		}
		if s.Latency() <= 0 {
			t.Errorf("non-positive sweep latency %v", s.Latency())
		}
	}
	events := 0
	for _, s := range m.Sweeps {
		events += s.Events
	}
	if events != 2 {
		t.Errorf("sweeps covered %d events, want 2", events)
	}
	if r.f.GiveUps != 0 {
		t.Errorf("%d messages lost beyond the retry budget", r.f.GiveUps)
	}
	if r.f.Delivered != r.f.Messages {
		t.Errorf("delivered %d of %d messages", r.f.Delivered, r.f.Messages)
	}
	if faulted < baseline {
		t.Errorf("faulted run (%v) faster than baseline (%v)", faulted, baseline)
	}
	// Both failed links must stay down and be routed around.
	for _, ev := range sched {
		if !r.hx.Links[ev.Link].Down {
			t.Errorf("link %d was repaired by nobody", ev.Link)
		}
	}
}

// A burst of failures inside one detection window coalesces into few
// sweeps, and changes arriving during a sweep are serviced right after it.
func TestSMCoalescesFailureBurst(t *testing.T) {
	baseline := runAlltoall(t, newRig(t), 32<<10)

	r := newRig(t)
	m, err := NewManager(r.f, SMConfig{
		DetectionDelay: 200 * sim.Microsecond,
		SweepLatency:   100 * sim.Microsecond,
		Rebuild:        r.rebuild,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Four failures within 50 us — well inside one detection window.
	sched, err := PlanLinkFailures(r.hx.Graph, 4, sim.Time(baseline)/4, 50*sim.Microsecond, 21)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Inject(sched); err != nil {
		t.Fatal(err)
	}
	runAlltoall(t, r, 32<<10)

	if m.Injected != 4 {
		t.Fatalf("applied %d events, want 4", m.Injected)
	}
	if got := len(m.Sweeps); got > 2 {
		t.Errorf("burst of 4 failures took %d sweeps, want <= 2", got)
	}
	events := 0
	for _, s := range m.Sweeps {
		events += s.Events
		if s.Rejected != nil {
			t.Errorf("sweep rejected: %v", s.Rejected)
		}
	}
	if events != 4 {
		t.Errorf("sweeps covered %d events, want 4", events)
	}
	if r.f.GiveUps != 0 {
		t.Errorf("%d messages lost", r.f.GiveUps)
	}
}

// A switch dying and coming back, every one of its links failing and then
// repaired at once: terminals attached to it are stranded while it is down
// (Unreachable > 0 in the sweep report), and the repair sweep restores full
// reachability. A statically degraded link must not be resurrected by its
// LinkUp.
func TestSMSwitchOutageAndRepair(t *testing.T) {
	r := newRig(t)

	// Statically degrade one link on the victim switch before runtime.
	victim := r.hx.Switches()[5]
	var static *topo.Link
	for _, l := range r.hx.Nodes[victim].Ports {
		if l != nil && r.hx.Nodes[l.Other(victim)].Kind == topo.Switch {
			static = l
			break
		}
	}
	static.Down = true
	tb, err := r.rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.f.SwapTables(tb); err != nil {
		t.Fatal(err)
	}

	m, err := NewManager(r.f, SMConfig{
		DetectionDelay: 50 * sim.Microsecond,
		SweepLatency:   100 * sim.Microsecond,
		Rebuild:        r.rebuild,
		Revalidate:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var outage Schedule
	for _, l := range r.hx.Nodes[victim].Ports {
		if l != nil {
			outage = append(outage,
				Event{At: 500 * sim.Microsecond, Kind: LinkDown, Link: l.ID},
				Event{At: 500*sim.Microsecond + 2*sim.Millisecond, Kind: LinkUp, Link: l.ID})
		}
	}
	if err := m.Inject(outage); err != nil {
		t.Fatal(err)
	}
	runAlltoall(t, r, 32<<10)

	// The static link's down and up change nothing.
	if want := len(outage) - 2; m.Injected != want {
		t.Fatalf("applied %d events, want %d", m.Injected, want)
	}
	sawStranded := false
	for _, s := range m.Sweeps {
		if s.Rejected != nil {
			t.Errorf("sweep rejected: %v", s.Rejected)
		}
		if s.Unreachable > 0 {
			sawStranded = true
		}
	}
	if !sawStranded {
		t.Error("no sweep reported the stranded terminals of the dead switch")
	}
	if last := m.Sweeps[len(m.Sweeps)-1]; last.Unreachable != 0 {
		t.Errorf("final sweep still reports %d unreachable pairs", last.Unreachable)
	}
	if !static.Down {
		t.Error("LinkUp resurrected a statically degraded link")
	}
	for _, l := range r.hx.Nodes[victim].Ports {
		if l == nil || l == static {
			continue
		}
		if l.Down {
			t.Errorf("link %d still down after switch repair", l.ID)
		}
	}
	if r.f.GiveUps != 0 {
		t.Errorf("%d messages lost despite repair within retry patience", r.f.GiveUps)
	}
}

// Revalidation must reject a rebuild that returns deadlock-prone tables —
// lane-less SSSP on a HyperX — and the fabric must keep its old tables.
func TestSMRejectsDeadlockProneSweep(t *testing.T) {
	r := newRig(t)
	old := r.f.Tables
	m, err := NewManager(r.f, SMConfig{
		DetectionDelay: 50 * sim.Microsecond,
		SweepLatency:   100 * sim.Microsecond,
		Rebuild:        func() (*route.Tables, error) { return route.SSSP(r.hx.Graph, 0) },
		Revalidate:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := PlanLinkFailures(r.hx.Graph, 1, sim.Millisecond, sim.Millisecond, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Inject(sched); err != nil {
		t.Fatal(err)
	}
	r.f.Eng.Run()

	if len(m.Sweeps) != 1 {
		t.Fatalf("%d sweeps, want 1", len(m.Sweeps))
	}
	s := m.Sweeps[0]
	if s.Rejected == nil || !strings.Contains(s.Rejected.Error(), "deadlock-prone") {
		t.Errorf("sweep rejection = %v, want deadlock-prone tables", s.Rejected)
	}
	if !s.Validated || s.DeadlockFree {
		t.Errorf("sweep Validated=%v DeadlockFree=%v, want true/false", s.Validated, s.DeadlockFree)
	}
	if r.f.Tables != old {
		t.Error("a rejected sweep replaced the fabric's tables")
	}
}

// Events scheduled in the past must be refused, and a nil Rebuild is a
// configuration error.
func TestManagerConfigErrors(t *testing.T) {
	r := newRig(t)
	if _, err := NewManager(r.f, SMConfig{}); err == nil {
		t.Error("NewManager accepted a nil Rebuild")
	}
	m, err := NewManager(r.f, SMConfig{Rebuild: r.rebuild})
	if err != nil {
		t.Fatal(err)
	}
	r.f.Eng.Schedule(sim.Millisecond, func(*sim.Engine) {
		if err := m.Inject(Schedule{{At: 0, Kind: LinkDown, Link: 0}}); err == nil {
			t.Error("Inject accepted an event in the past")
		}
	})
	r.f.Eng.Run()
}

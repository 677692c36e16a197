package exp

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/faults"
	"github.com/hpcsim/t2hx/internal/mpi"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// msgLines returns the "msg" lines of a streamed JSONL metrics document.
func msgLines(t *testing.T, doc []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for _, l := range bytes.Split(doc, []byte("\n")) {
		if bytes.HasPrefix(l, []byte(`{"kind":"msg",`)) {
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		t.Fatal("metrics stream holds no msg lines")
	}
	return out
}

// TestSinglePlaneMultiFabricMatchesFabric is the refactor's equivalence
// property: for every paper combo, wrapping the plane in a MultiFabric
// under the default single-plane policy must reproduce the plain Fabric
// run byte-for-byte — same makespan, the same streamed msg lines, same
// XmitData. The message sizes bracket the PARX threshold so both LID
// quadrants are exercised.
func TestSinglePlaneMultiFabricMatchesFabric(t *testing.T) {
	const n = 16
	opts := telemetry.Options{Counters: true, Messages: true}
	for _, c := range PaperCombos() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			m, err := BuildMachine(c, MachineConfig{Small: true, Degrade: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			ranks, err := m.Place(n, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int64{256, 64 << 10} {
				build := func() []*mpi.Program {
					inst, err := workloads.BuildIMB("alltoall", n, size)
					if err != nil {
						t.Fatal(err)
					}
					return inst.Progs
				}

				f, err := m.NewFabric(99)
				if err != nil {
					t.Fatal(err)
				}
				colF := telemetry.New(m.G, opts)
				var docF, docM bytes.Buffer
				colF.SetSink(telemetry.NewJSONLSink(&docF))
				f.AttachTelemetry(colF)
				resF, err := mpi.Run(f, "single", ranks, build(), mpi.Options{})
				if err != nil {
					t.Fatal(err)
				}

				mf, err := m.NewMultiFabric(99)
				if err != nil {
					t.Fatal(err)
				}
				if mf.NumPlanes() != 1 || mf.PolicyName() != "single" {
					t.Fatalf("single-plane machine gave %d planes, policy %s", mf.NumPlanes(), mf.PolicyName())
				}
				tm, err := m.AttachTelemetry(mf, opts)
				if err != nil {
					t.Fatal(err)
				}
				tm.SetSink(telemetry.NewJSONLSink(&docM))
				resM, err := mpi.Run(mf, "multi", ranks, build(), mpi.Options{})
				if err != nil {
					t.Fatal(err)
				}

				if resF.Elapsed != resM.Elapsed {
					t.Errorf("size %d: makespan %v (fabric) != %v (multifabric)", size, resF.Elapsed, resM.Elapsed)
				}
				if got, want := tm.TotalXmitData(), colF.Chans.TotalXmitData(); got != want {
					t.Errorf("size %d: XmitData %v (multifabric) != %v (fabric)", size, got, want)
				}
				if err := colF.FinishStream(); err != nil {
					t.Fatal(err)
				}
				if err := tm.FinishStream(); err != nil {
					t.Fatal(err)
				}
				linesF, linesM := msgLines(t, docF.Bytes()), msgLines(t, docM.Bytes())
				if len(linesM) != len(linesF) {
					t.Fatalf("size %d: %d msg lines (multifabric) != %d (fabric)", size, len(linesM), len(linesF))
				}
				for i := range linesM {
					if !bytes.Equal(linesF[i], linesM[i]) {
						t.Fatalf("size %d: msg line %d diverged:\nfabric      %s\nmultifabric %s", size, i, linesF[i], linesM[i])
					}
				}
			}
		})
	}
}

// TestDualPlaneSizeSplitConservation runs mixed-size traffic over the
// dual-plane machine and checks the machine-level invariants: both planes
// carry traffic (small messages on the HyperX, large on the Fat-Tree),
// the conservation identity holds across the union of both planes'
// channel sets, nothing is lost, both planes emit trace spans, and both
// sample the shared engine's queue.
func TestDualPlaneSizeSplitConservation(t *testing.T) {
	const n = 16
	m, err := BuildMachine(DualPlaneCombo(), MachineConfig{Small: true, Degrade: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := m.Place(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := m.NewMultiFabric(7)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := m.AttachTelemetry(mf, telemetry.Options{Counters: true, Messages: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]bytes.Buffer, mf.NumPlanes())
	for p := range traces {
		tm.Planes[p].SetTraceSink(telemetry.NewTraceSink(&traces[p]))
	}
	for _, size := range []int64{512, 1 << 20} {
		inst, err := workloads.BuildIMB("alltoall", n, size)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mpi.Run(mf, "mixed", ranks, inst.Progs, mpi.Options{}); err != nil {
			t.Fatal(err)
		}
	}

	if mf.Delivered != mf.Messages {
		t.Errorf("delivered %d of %d messages", mf.Delivered, mf.Messages)
	}
	for p := 0; p < mf.NumPlanes(); p++ {
		if mf.PlaneMessages[p] == 0 {
			t.Errorf("plane %s carried no messages under sizesplit", mf.PlaneName(p))
		}
		if tm.Planes[p].Chans.TotalXmitData() <= 0 {
			t.Errorf("plane %s has no XmitData", mf.PlaneName(p))
		}
		if err := tm.Planes[p].FinishTraceStream(); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(traces[p].Bytes(), &doc); err != nil {
			t.Fatalf("plane %s trace: %v", mf.PlaneName(p), err)
		}
		spans := 0
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" {
				spans++
			}
		}
		if spans == 0 {
			t.Errorf("plane %s emitted no trace spans", mf.PlaneName(p))
		}
		// Every plane reports the shared engine's events, so every plane
		// samples its queue at each of them.
		c := tm.Planes[p]
		if c.QueueHist.Count() != c.EventsProcessed() || c.MaxQueueDepth == 0 ||
			c.MaxQueueDepth != tm.Planes[0].MaxQueueDepth {
			t.Errorf("plane %s sampled the queue at %d of %d engine events, max depth %d (plane 0: %d)",
				mf.PlaneName(p), c.QueueHist.Count(), c.EventsProcessed(), c.MaxQueueDepth, tm.Planes[0].MaxQueueDepth)
		}
	}
	sum := tm.FCTSummary()
	if sum.Delivered != int(mf.Delivered) {
		t.Errorf("telemetry delivered %d, fabric delivered %d", sum.Delivered, mf.Delivered)
	}
	lhs, rhs := tm.TotalXmitData(), sum.BytesHops
	if rhs <= 0 || math.Abs(lhs-rhs) > 1e-6*rhs {
		t.Errorf("conservation violated: ΣXmitData %v != Σ bytes×hops %v", lhs, rhs)
	}
}

// TestFailoverSurvivesFullPlaneOutage kills every inter-switch link of
// the HyperX plane mid-Alltoall under a failover policy primed on that
// plane. The acceptance criterion is zero lost messages: in-flight
// traffic redispatches onto the Fat-Tree plane and new sends skip the
// unhealthy plane, reusing the retry/re-sweep machinery.
func TestFailoverSurvivesFullPlaneOutage(t *testing.T) {
	const n = 16
	combo := DualPlaneCombo()
	combo.Policy = "failover:1"
	m, err := BuildMachine(combo, MachineConfig{Small: true, Degrade: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := m.Place(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func() []*mpi.Program {
		inst, err := workloads.BuildIMB("alltoall", n, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		return inst.Progs
	}

	mfBase, err := m.NewMultiFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := mpi.Run(mfBase, "baseline", ranks, build(), mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mfBase.PlaneMessages[1] != mfBase.Messages {
		t.Fatalf("failover:1 baseline put %d of %d messages on the primary plane",
			mfBase.PlaneMessages[1], mfBase.Messages)
	}

	// The outage mutates the HyperX graph's link state; restore it so the
	// machine stays valid for other tests reusing the combo.
	g := m.Planes[1].G
	downBefore := make([]bool, len(g.Links))
	for i, l := range g.Links {
		downBefore[i] = l.Down
	}
	defer func() {
		for i, l := range g.Links {
			l.Down = downBefore[i]
		}
	}()

	mf, err := m.NewMultiFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := m.AttachTelemetry(mf, telemetry.Options{Messages: true})
	if err != nil {
		t.Fatal(err)
	}
	mf.EnableResilience(fabric.Resilience{})
	mgr, err := faults.NewManager(mf.Plane(1), faults.SMConfig{
		Rebuild:    m.Planes[1].Rebuild,
		Revalidate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.OnHealth = func(healthy bool) { mf.SetPlaneHealth(1, healthy) }
	sched := faults.PlaneOutage(g, sim.Time(base.Elapsed)/3, 0)
	if len(sched) == 0 {
		t.Fatal("PlaneOutage produced no events")
	}
	if err := mgr.Inject(sched); err != nil {
		t.Fatal(err)
	}
	if _, err := mpi.Run(mf, "plane-outage", ranks, build(), mpi.Options{}); err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}

	if mf.Delivered != mf.Messages {
		t.Errorf("lost messages: delivered %d of %d", mf.Delivered, mf.Messages)
	}
	for p := 0; p < mf.NumPlanes(); p++ {
		if g := mf.Plane(p).GiveUps; g != 0 {
			t.Errorf("plane %s gave up on %d messages", mf.PlaneName(p), g)
		}
	}
	if mf.PlaneMessages[0] == 0 {
		t.Error("fat-tree plane carried no traffic after the outage")
	}
	if mgr.TornDown > 0 && mf.Redispatches == 0 {
		t.Errorf("%d flows torn down but nothing redispatched across planes", mgr.TornDown)
	}
	if mf.PlaneHealthy(1) {
		t.Error("shattered plane still marked healthy")
	}
	// A redispatched message leaves one record on each plane it touched;
	// the machine summary still counts it once.
	if sum := tm.FCTSummary(); sum.N != int(mf.Messages) || sum.Delivered != int(mf.Delivered) {
		t.Errorf("telemetry summary counts %d messages, %d delivered; fabric counts %d, %d (%d redispatches)",
			sum.N, sum.Delivered, mf.Messages, mf.Delivered, mf.Redispatches)
	}
}

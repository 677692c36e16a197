package main

import (
	"fmt"
	"testing"

	"github.com/hpcsim/t2hx/internal/topo"
)

func TestGateFailsEveryOperationOnDigestMismatch(t *testing.T) {
	ok := []unitResult{{ops: 10, digest: 7}, {ops: 10, digest: 7}}
	if a, f, _ := gate(ok, digest(7).String()); a != 20 || f != 0 {
		t.Fatalf("matching digests: attempted %d failed %d, want 20 0", a, f)
	}
	if _, f, _ := gate(ok, ""); f != 0 {
		t.Fatalf("no recorded digest: failed %d, want 0", f)
	}
	if _, f, p := gate(ok, digest(8).String()); f != 20 || len(p) == 0 {
		t.Fatalf("perturbed recorded digest: failed %d (%v), want all 20", f, p)
	}
	drift := []unitResult{{ops: 10, digest: 7}, {ops: 10, digest: 9}}
	if _, f, _ := gate(drift, ""); f != 20 {
		t.Fatalf("units disagreeing: failed %d, want all 20", f)
	}
}

func TestBrokenInvariantIsReportedAsFailedOperations(t *testing.T) {
	u := unitResult{ops: 5, digest: 1}
	u.fail(2, "two cells lost messages")
	if a, f, p := gate([]unitResult{u, {ops: 5, digest: 1}}, ""); a != 10 || f != 2 || len(p) != 1 {
		t.Fatalf("attempted %d failed %d problems %v, want 10 2 and one problem", a, f, p)
	}
	u.fail(100, "more failures than operations")
	if u.failed != u.ops {
		t.Fatalf("failed %d exceeds ops %d", u.failed, u.ops)
	}
	lossy := counts{messages: 4, delivered: 3, bytes: 4, deliveredBytes: 3}
	if lossy.lossless() {
		t.Fatal("a run that lost a message reads as lossless")
	}
}

// fakeClock advances only when told to, so span arithmetic is exact.
func fakeTracer(clock *int64) *tracer {
	tr := newTracer()
	tr.now = func() int64 { return *clock }
	return tr
}

func TestNestedSpanSelfTime(t *testing.T) {
	var now int64
	tr := fakeTracer(&now)
	at := func(t int64) { now = t }
	at(0)
	tr.begin(kCell) // [0, 100]
	at(10)
	tr.begin(kStepDispatch) // [10, 40], filed as a settle
	at(15)
	tr.begin(kSend) // [15, 20]
	at(20)
	tr.end(kSend)
	at(40)
	tr.end(kStepSettle)
	at(50)
	tr.begin(kStepDispatch) // [50, 60]
	at(60)
	tr.end(kStepDispatch)
	at(100)
	tr.end(kCell)

	want := map[kind]agg{
		kCell:         {n: 1, total: 100, self: 100 - 30 - 10, max: 100},
		kStepSettle:   {n: 1, total: 30, self: 25, max: 30},
		kStepDispatch: {n: 1, total: 10, self: 10, max: 10},
		kSend:         {n: 1, total: 5, self: 5, max: 5},
	}
	for k, w := range want {
		if got := tr.agg[k]; got != w {
			t.Errorf("%s: got %+v, want %+v", kindNames[k], got, w)
		}
	}
	if len(tr.spans) != 1 || tr.spans[0].Name != "exp.cell" || tr.spans[0].Parent != 0 {
		t.Fatalf("recorded spans %+v, want the one root cell", tr.spans)
	}
}

func TestMergedChildTracers(t *testing.T) {
	var now int64
	root := fakeTracer(&now)
	root.begin(kBuildMachine)
	c := root.child()
	c.begin(kCell)
	now = 7
	c.end(kCell)
	root.merge(c)
	now = 9
	root.end(kBuildMachine)
	if a := root.agg[kCell]; a.n != 1 || a.total != 7 {
		t.Fatalf("merged cell agg %+v", a)
	}
	if len(root.spans) != 2 || root.spans[0].ID == root.spans[1].ID {
		t.Fatalf("spans %+v: want two with distinct ids", root.spans)
	}
}

// smoke shrinks each workload to a size that runs in seconds.
func smoke(name string, seed uint64) params {
	switch name {
	case "endurance":
		p := newEndurance(seed)
		p.S, p.T, p.Window, p.UnitMessages = []int{4, 4}, 4, 16, 2000
		p.draw(seed, 8)
		return p
	case "paper_sweep":
		p := newPaperSweep(seed)
		p.Combos = []string{fatTreeFTree, "TSUBAME2 dual-plane / ftree+parx / sizesplit"}
		p.Nodes, p.Placements = 8, 2
		return p
	default:
		p := newFaultResweep(seed)
		for i := range p.Scenarios {
			p.Scenarios[i].Failures, p.Scenarios[i].Bursts = 3-i, 1
		}
		p.Nodes = 12
		return p
	}
}

func TestTracedAndUntracedDigestsAgree(t *testing.T) {
	for _, w := range workloadTable {
		w := w
		t.Run(w.name, func(t *testing.T) {
			p := smoke(w.name, 3)
			coldTableCache()
			plain, err := p.build(nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := plain.unit(nil)
			checkUnit(t, "untraced", ref, ref.digest)
			tr := newTracer()
			checkUnit(t, "traced unit", plain.unit(tr), ref.digest)
			if tr.agg[kStepDispatch].n+tr.agg[kStepSettle].n == 0 || tr.agg[kSend].n == 0 {
				t.Errorf("traced unit recorded no steps or sends: %+v", tr.agg)
			}

			coldTableCache()
			traced, err := p.build(newTracer())
			if err != nil {
				t.Fatal(err)
			}
			checkUnit(t, "traced set-up", traced.unit(nil), ref.digest)
		})
	}
}

func checkUnit(t *testing.T, what string, u unitResult, want digest) {
	t.Helper()
	if u.failed != 0 || u.ops == 0 || u.msgs == 0 {
		t.Errorf("%s: ops %d failed %d msgs %d: %v", what, u.ops, u.failed, u.msgs, u.problems)
	}
	if u.digest != want {
		t.Errorf("%s: digest %s, want %s", what, u.digest, want)
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	a, b := newEndurance(1), newEndurance(2)
	if fmt.Sprint(a.CoordPerm, a.SlotPerm) == fmt.Sprint(b.CoordPerm, b.SlotPerm) {
		t.Fatal("seeds 1 and 2 drew the same relabelling")
	}
	seen := map[int]bool{}
	for _, s := range a.Strides {
		if s < 1 || s >= a.terminals() || seen[s] {
			t.Fatalf("strides %v: want distinct values in [1, n-1]", a.Strides)
		}
		seen[s] = true
	}
	hx, err := topo.BuildHyperX(topo.HyperXConfig{S: []int{3, 2}, T: 2, Bandwidth: 1, Latency: 1})
	if err != nil {
		t.Fatal(err)
	}
	small := enduranceParams{S: []int{3, 2}, T: 2}
	small.draw(5, 4)
	relabel := small.relabelling(hx)
	hit := map[topo.NodeID]bool{}
	for j, r := range relabel {
		hit[r] = true
		// Switch-mates stay switch-mates: the relabelling keeps the lattice.
		mate := j ^ 1
		if hx.Graph.SwitchOf(r) != hx.Graph.SwitchOf(relabel[mate]) {
			t.Fatalf("terminals %d and %d shared a switch but are relabelled apart", j, mate)
		}
	}
	if len(hit) != len(relabel) {
		t.Fatalf("relabelling %v is not a permutation", relabel)
	}
	if newPaperSweep(1).BaseSeed == newPaperSweep(2).BaseSeed {
		t.Fatal("paper_sweep base seed ignores the workload seed")
	}
	if newFaultResweep(1).FaultSeed == newFaultResweep(2).FaultSeed {
		t.Fatal("fault_resweep fault seed ignores the workload seed")
	}
	for _, w := range workloadTable {
		recordedDigest(w.name, 1) // panics on a malformed digests.json
	}
}

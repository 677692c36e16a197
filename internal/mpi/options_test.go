package mpi

import (
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
)

func TestEagerThresholdOption(t *testing.T) {
	// With a tiny eager threshold, a 100-byte send becomes rendezvous and
	// must wait for the receiver.
	hx, f := testFabric(t, false)
	b := NewBuilder(2)
	b.Progs[0].Send(1, 100, 1)
	b.Progs[1].Compute(1.0)
	b.Progs[1].Recv(0, 1)
	res, err := Run(f, "rdv", hx.Terminals()[:2], b.Progs, Options{EagerThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 1.0 {
		t.Errorf("send completed before recv was posted: %v", res.Elapsed)
	}
	// With a huge threshold the same program finishes when the compute
	// does (eager sender is long gone).
	hx2, f2 := testFabric(t, false)
	b2 := NewBuilder(2)
	b2.Progs[0].Send(1, 100, 1)
	b2.Progs[1].Compute(1.0)
	b2.Progs[1].Recv(0, 1)
	res2, err := Run(f2, "eager", hx2.Terminals()[:2], b2.Progs, Options{EagerThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Elapsed > res.Elapsed {
		t.Errorf("eager run slower than rendezvous: %v vs %v", res2.Elapsed, res.Elapsed)
	}
}

func TestRendezvousDelayOption(t *testing.T) {
	mk := func(delay sim.Duration) sim.Duration {
		hx, f := testFabric(t, false)
		b := NewBuilder(2)
		b.Progs[0].Send(1, 1<<20, 1)
		b.Progs[1].Recv(0, 1)
		res, err := Run(f, "rdvdelay", hx.Terminals()[:2], b.Progs, Options{RendezvousDelay: delay})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	fast := mk(1 * sim.Microsecond)
	slow := mk(1 * sim.Millisecond)
	if slow <= fast {
		t.Errorf("rendezvous delay had no effect: %v vs %v", slow, fast)
	}
	if d := float64(slow - fast); d < 0.9e-3 || d > 1.2e-3 {
		t.Errorf("delay delta = %v, want ~1ms", d)
	}
}

func TestJobStuckReportNamesRankAndOp(t *testing.T) {
	hx, f := testFabric(t, false)
	b := NewBuilder(2)
	b.Progs[1].Recv(0, 42)
	_, err := Run(f, "stuck", hx.Terminals()[:2], b.Progs, Options{})
	if err == nil {
		t.Fatal("expected deadlock")
	}
	msg := err.Error()
	for _, want := range []string{"rank 1", "tag=42"} {
		if !contains(msg, want) {
			t.Errorf("stuck report %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestLaunchValidatesShape(t *testing.T) {
	hx, f := testFabric(t, false)
	b := NewBuilder(3)
	if _, err := Launch(f, "bad", hx.Terminals()[:2], b.Progs, Options{}, nil); err == nil {
		t.Error("rank/program count mismatch accepted")
	}
}

func TestJobDoneAccessors(t *testing.T) {
	hx, f := testFabric(t, false)
	b := NewBuilder(2)
	b.Compute(1.0)
	var res Result
	j, err := Launch(f, "acc", hx.Terminals()[:2], b.Progs, Options{}, func(r Result) { res = r })
	if err != nil {
		t.Fatal(err)
	}
	if j.Done() {
		t.Error("job done before engine ran")
	}
	f.Eng.Run()
	if !j.Done() {
		t.Fatal("job not done after run")
	}
	if res.Elapsed < 1.0 {
		t.Errorf("result elapsed = %v", res.Elapsed)
	}
}

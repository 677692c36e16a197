package exp

import (
	"errors"
	"reflect"
	"testing"

	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/workloads"
)

func degradedTestSpec(engines []string, counts []int, variants int) DegradedSpec {
	return DegradedSpec{
		Engines: engines,
		Workloads: []DegradedWorkload{{
			Name: "alltoall",
			Build: func(n int) (*workloads.Instance, error) {
				return workloads.BuildIMB("alltoall", n, 2048)
			},
		}},
		Counts:       counts,
		Variants:     variants,
		Nodes:        8,
		Small:        true,
		Seed:         11,
		Detect:       50 * sim.Microsecond,
		SweepLatency: 100 * sim.Microsecond,
	}
}

func TestRunDegradedSpecValidation(t *testing.T) {
	base := degradedTestSpec([]string{"hxnm"}, []int{0}, 1)
	cases := []struct {
		name   string
		mutate func(*DegradedSpec)
	}{
		{"no engines", func(s *DegradedSpec) { s.Engines = nil }},
		{"no workloads", func(s *DegradedSpec) { s.Workloads = nil }},
		{"no counts", func(s *DegradedSpec) { s.Counts = nil }},
		{"negative count", func(s *DegradedSpec) { s.Counts = []int{-1} }},
		{"no variants", func(s *DegradedSpec) { s.Variants = 0 }},
		{"no nodes", func(s *DegradedSpec) { s.Nodes = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.mutate(&spec)
			if _, err := RunDegraded(Runner{Workers: 1}, spec); err == nil {
				t.Fatal("bad spec accepted")
			}
		})
	}
}

// The sweep's determinism contract: -j 1 and -j N produce bit-identical
// per-variant results, machine pools and chain caches notwithstanding.
func TestRunDegradedDeterministicAcrossWorkers(t *testing.T) {
	spec := degradedTestSpec([]string{"hxmin", "hxnm"}, []int{0, 3}, 3)
	seq, err := RunDegraded(Runner{Workers: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunDegraded(Runner{Workers: 4}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		for i := range seq {
			if !reflect.DeepEqual(seq[i], par[i]) {
				t.Fatalf("cell %d diverges across worker counts:\n -j1: %+v\n -j4: %+v",
					i, seq[i], par[i])
			}
		}
		t.Fatal("results diverge across worker counts")
	}
	if len(seq) != 2*2*3 {
		t.Fatalf("got %d results, want 12", len(seq))
	}
	for _, r := range seq {
		// hxmin may wedge when a stranded pair intersects the traffic — that
		// outcome is sweep data. hxnm must always survive.
		if !r.Survived && (r.Engine != "hxmin" || r.Unreachable == 0) {
			t.Errorf("%s/%s f=%d v=%d did not survive: %s",
				r.Engine, r.Workload, r.Failures, r.Variant, r.Err)
		}
		if r.Baseline <= 0 || (r.Survived && r.Faulted <= 0) {
			t.Errorf("missing makespans: %+v", r)
		}
		if r.Margin <= 0 || r.Margin > 1 {
			t.Errorf("margin %g out of range", r.Margin)
		}
		if r.Failures > 0 {
			if r.Planned != r.Failures {
				t.Errorf("planned %d of %d failures on a lightly degraded plane",
					r.Planned, r.Failures)
			}
			if r.Sweeps == 0 {
				t.Errorf("%s f=%d v=%d: no SM sweeps recorded", r.Engine, r.Failures, r.Variant)
			}
		}
	}
}

// A shared variant index means a shared failure chain: hxmin and hxnm cells
// of the same variant and count must inject the identical timeline (equal
// planned counts), differing only in how their tables cope.
func TestRunDegradedVariantsShareChains(t *testing.T) {
	spec := degradedTestSpec([]string{"hxmin", "hxnm"}, []int{4}, 2)
	res, err := RunDegraded(Runner{Workers: 2}, spec)
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[int][]DegradedResult{}
	for _, r := range res {
		byVariant[r.Variant] = append(byVariant[r.Variant], r)
	}
	for v, rs := range byVariant {
		if len(rs) != 2 {
			t.Fatalf("variant %d has %d results, want 2 engines", v, len(rs))
		}
		if rs[0].Planned != rs[1].Planned || rs[0].Seed != rs[1].Seed {
			t.Errorf("variant %d chains diverge across engines: %+v vs %+v", v, rs[0], rs[1])
		}
	}
}

// The tentpole acceptance sweep: >= 200 seeded degradation variants across
// >= 2 fault-tolerant engines, completing deterministically with goodput,
// unreachable-pair and deadlock-margin columns populated. hxmin is allowed
// to strand pairs (that is its trade-off, reported not panicked); hxnm must
// keep every pair reachable on connectivity-preserving chains.
func TestRunDegradedSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance sweep skipped in -short")
	}
	spec := degradedTestSpec([]string{"hxmin", "hxnm"}, []int{0, 3, 6, 9}, 25)
	res, err := RunDegraded(Runner{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2*4*25 {
		t.Fatalf("got %d results, want 200", len(res))
	}
	for _, r := range res {
		if !r.Survived {
			// hxmin trades reachability for minimality: a wedged run is
			// legitimate sweep data, but only for hxmin, and only when the
			// final-state analysis confirms stranded pairs explain it.
			if r.Engine != "hxmin" || r.Unreachable == 0 {
				t.Errorf("%s f=%d v=%d did not survive: %s", r.Engine, r.Failures, r.Variant, r.Err)
			}
			continue
		}
		if !r.DeadlockFree {
			t.Errorf("%s f=%d v=%d tables not deadlock-free", r.Engine, r.Failures, r.Variant)
		}
		if r.Margin <= 0 || r.Margin > 1 {
			t.Errorf("%s f=%d v=%d margin %g out of range", r.Engine, r.Failures, r.Variant, r.Margin)
		}
		if r.Engine == "hxnm" && r.Unreachable > 0 {
			t.Errorf("hxnm stranded %d pairs at f=%d v=%d on a connectivity-preserving chain",
				r.Unreachable, r.Failures, r.Variant)
		}
		if r.Failures == 0 && r.Unreachable > 0 {
			t.Errorf("%s stranded %d pairs on a healthy plane", r.Engine, r.Unreachable)
		}
	}
	rows := SummarizeDegraded(res)
	if len(rows) != 2*4 {
		t.Fatalf("got %d summary rows, want 8", len(rows))
	}
	for _, row := range rows {
		if row.Variants != 25 {
			t.Errorf("row %s f=%d aggregates %d variants, want 25", row.Engine, row.Failures, row.Variants)
		}
		if row.Survived != row.Variants && (row.Engine != "hxmin" || row.Failures == 0) {
			t.Errorf("row %s f=%d: %d/%d survived", row.Engine, row.Failures, row.Survived, row.Variants)
		}
		if row.MarginMin <= 0 || row.MarginMin > row.MarginMean || row.MarginMean > 1 {
			t.Errorf("row %s f=%d margin stats out of order: min=%g mean=%g",
				row.Engine, row.Failures, row.MarginMin, row.MarginMean)
		}
	}
	// Margins must not improve as failures climb: more failures, less slack.
	for _, eng := range []string{"hxmin", "hxnm"} {
		var healthy, worst DegradedRow
		for _, row := range rows {
			if row.Engine != eng {
				continue
			}
			if row.Failures == 0 {
				healthy = row
			}
			if row.Failures == 9 {
				worst = row
			}
		}
		t.Logf("%s: margin mean %.3f (healthy) -> %.3f (9 failures); unreachable mean %.2f max %d",
			eng, healthy.MarginMean, worst.MarginMean, worst.UnreachableMean, worst.UnreachableMax)
	}
}

func TestSummarizeDegradedGroups(t *testing.T) {
	res := []DegradedResult{
		{Engine: "hxnm", Workload: "a2a", Failures: 3, Survived: true,
			Baseline: 100, Faulted: 150, GoodputDuring: 10, Margin: 0.8, Unreachable: 0},
		{Engine: "hxnm", Workload: "a2a", Failures: 3, Survived: false,
			Err: "wedged", Margin: 0.6, Unreachable: 2},
		{Engine: "hxmin", Workload: "a2a", Failures: 3, Survived: true,
			Baseline: 100, Faulted: 120, GoodputDuring: 20, Margin: 0.9, Unreachable: 4},
	}
	rows := SummarizeDegraded(res)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	nm := rows[0]
	if nm.Engine != "hxnm" || nm.Variants != 2 || nm.Survived != 1 {
		t.Fatalf("hxnm row wrong: %+v", nm)
	}
	if nm.MarginMin != 0.6 || nm.UnreachableMax != 2 {
		t.Errorf("hxnm extremes wrong: %+v", nm)
	}
	if nm.SlowdownMed != 0.5 {
		t.Errorf("hxnm slowdown median %g, want 0.5 (dead variant excluded)", nm.SlowdownMed)
	}
	if rows[1].Engine != "hxmin" {
		t.Errorf("rows not in first-seen order: %+v", rows)
	}
}

// RunAll keeps completed work when some cells fail, labelling each error.
func TestRunAllPartialResults(t *testing.T) {
	boom := errors.New("boom")
	cells := []Cell{
		{Label: "ok-0", Run: func(uint64) (any, error) { return 10, nil }},
		{Label: "bad-1", Run: func(uint64) (any, error) { return nil, boom }},
		{Label: "ok-2", Run: func(uint64) (any, error) { return 30, nil }},
		{Label: "bad-3", Run: func(uint64) (any, error) { return nil, boom }},
	}
	res, err := Runner{Workers: 2}.RunAll(cells)
	if err == nil {
		t.Fatal("joined error missing")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("joined error %v does not wrap the cell error", err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	if res[0].Value != 10 || res[2].Value != 30 {
		t.Fatalf("completed values lost: %+v", res)
	}
	if res[1].Value != nil || res[3].Value != nil {
		t.Fatalf("failed cells carry values: %+v", res)
	}
}

func TestFaultSpecValidateTyped(t *testing.T) {
	m, err := BuildMachine(smallCombo(), MachineConfig{Small: true})
	if err != nil {
		t.Fatal(err)
	}
	build := func(n int) (*workloads.Instance, error) {
		return workloads.BuildIMB("alltoall", n, 2048)
	}
	cases := []struct {
		name string
		spec FaultSpec
		want error
	}{
		{"nil machine", FaultSpec{Nodes: 4, Build: build}, ErrNilMachine},
		{"nil build", FaultSpec{Machine: m, Nodes: 4}, ErrNilBuild},
		{"negative failures", FaultSpec{Machine: m, Nodes: 4, Failures: -1, Build: build}, ErrBadFailures},
		{"too many failures", FaultSpec{Machine: m, Nodes: 4, Failures: 1 << 20, Build: build}, ErrBadFailures},
		{"zero nodes", FaultSpec{Machine: m, Build: build}, ErrBadNodes},
		{"too many nodes", FaultSpec{Machine: m, Nodes: 1 << 20, Build: build}, ErrBadNodes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
	ok := FaultSpec{Machine: m, Nodes: 4, Build: build}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// RunFaultScenario and RunFaultBatch surface the same typed errors.
	if _, err := RunFaultScenario(FaultSpec{Machine: m, Nodes: -1, Build: build}); !errors.Is(err, ErrBadNodes) {
		t.Fatalf("RunFaultScenario bad spec: %v", err)
	}
	if _, err := RunFaultBatch(Runner{Workers: 1}, []FaultSpec{
		{Machine: m, Nodes: 4, Failures: -2, Build: build},
	}); !errors.Is(err, ErrBadFailures) {
		t.Fatalf("RunFaultBatch bad spec: %v", err)
	}
}

package telemetry_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// TestStreamingRealRun drives a full simulated collective with a JSONL
// sink attached: every finished message must appear as a streamed line,
// and the footer totals must match.
func TestStreamingRealRun(t *testing.T) {
	combo := exp.PaperCombos()[0]
	m, err := exp.BuildMachine(combo, exp.MachineConfig{Small: true, Degrade: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var col *telemetry.Collector
	_, _, err = exp.RunTrials(exp.TrialSpec{
		Machine: m, Nodes: 16, Trials: 1, Seed: 1,
		Build: func(n int) (*workloads.Instance, error) {
			return workloads.BuildIMB("alltoall", n, 64<<10)
		},
		Attach: func(_ int, msgr fabric.Messenger) {
			col = telemetry.New(m.G, telemetry.All())
			col.SetSink(telemetry.NewJSONLSink(&buf))
			msgr.(*fabric.Fabric).AttachTelemetry(col)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := col.FCTSummary()
	if sum.N == 0 || sum.Delivered != sum.N {
		t.Fatalf("want all delivered, got %d of %d", sum.Delivered, sum.N)
	}
	if err := col.FinishStream(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var msgs int
	for _, l := range lines {
		var line struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(l), &line); err != nil {
			t.Fatal(err)
		}
		if line.Kind == "msg" {
			msgs++
		}
	}
	if msgs != sum.N {
		t.Fatalf("streamed %d msg lines for %d messages", msgs, sum.N)
	}

	// The run footer is the last line and its totals match the stream.
	var footer struct {
		Kind     string `json:"kind"`
		Messages int    `json:"messages"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &footer); err != nil {
		t.Fatal(err)
	}
	if footer.Kind != "run" || footer.Messages != sum.N {
		t.Fatalf("footer kind=%q messages=%d, want run/%d", footer.Kind, footer.Messages, sum.N)
	}
}

// TestStreamingFaultTeardown streams telemetry through a faulted run —
// link failures mid-flight force redispatches and SM sweeps, exercising
// the reopen/recycle path of the open-slot table. The stream must stay
// consistent: one line per finished message attempt, no sink errors, one
// Close.
func TestStreamingFaultTeardown(t *testing.T) {
	combo := exp.PaperCombos()[0]
	m, err := exp.BuildMachine(combo, exp.MachineConfig{Small: true, Degrade: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	count := telemetry.NewClosingSink()
	col := telemetry.New(m.G, telemetry.All())
	col.SetSink(count)
	res, err := exp.RunFaultScenario(exp.FaultSpec{
		Machine:   m,
		Nodes:     len(m.G.Terminals()),
		Failures:  2,
		Seed:      5,
		Detect:    50 * sim.Microsecond,
		Sweep:     100 * sim.Microsecond,
		Telemetry: col,
		Build: func(n int) (*workloads.Instance, error) {
			return workloads.BuildIMB("alltoall", n, 32<<10)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Messages {
		t.Fatalf("delivered %d of %d", res.Delivered, res.Messages)
	}
	sum := col.FCTSummary()
	if got := count.Count("msg"); got != uint64(sum.N) {
		t.Fatalf("streamed %d msg lines, summary counted %d", got, sum.N)
	}
	// Redispatches close one record and open another, so the stream holds
	// at least one line per delivered message plus one per redispatch.
	if uint64(sum.N) < res.Messages {
		t.Fatalf("summary N %d below %d workload messages", sum.N, res.Messages)
	}
	if err := col.FinishStream(); err != nil {
		t.Fatal(err)
	}
	if count.Closes != 1 {
		t.Fatalf("sink closed %d times", count.Closes)
	}
	if count.Count("run") != 1 || count.Count("hist") == 0 || count.Count("chan") == 0 {
		t.Fatalf("footer lines run=%d hist=%d chan=%d",
			count.Count("run"), count.Count("hist"), count.Count("chan"))
	}
}

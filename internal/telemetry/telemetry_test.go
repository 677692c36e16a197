package telemetry_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// runWithCollector executes one trial of build on the combo's small plane
// with a fresh collector attached and returns it.
func runWithCollector(t *testing.T, combo exp.Combo, n int, opts telemetry.Options,
	build func(n int) (*workloads.Instance, error)) *telemetry.Collector {
	t.Helper()
	return runWithSinks(t, combo, n, opts, build, nil, nil)
}

// runWithSinks is runWithCollector with the metrics and trace sinks (each
// optional) attached before traffic starts; the caller finishes them.
func runWithSinks(t *testing.T, combo exp.Combo, n int, opts telemetry.Options,
	build func(n int) (*workloads.Instance, error), metrics, trace telemetry.Sink) *telemetry.Collector {
	t.Helper()
	m, err := exp.BuildMachine(combo, exp.MachineConfig{Small: true, Degrade: true, Seed: 1})
	if err != nil {
		t.Fatalf("BuildMachine(%s): %v", combo.Name, err)
	}
	var col *telemetry.Collector
	_, _, err = exp.RunTrials(exp.TrialSpec{
		Machine: m, Nodes: n, Trials: 1, Seed: 1, Build: build,
		Attach: func(_ int, msgr fabric.Messenger) {
			col = telemetry.New(m.G, opts)
			if metrics != nil {
				col.SetSink(metrics)
			}
			if trace != nil {
				col.SetTraceSink(trace)
			}
			msgr.(*fabric.Fabric).AttachTelemetry(col)
		},
	})
	if err != nil {
		t.Fatalf("RunTrials(%s): %v", combo.Name, err)
	}
	if col == nil {
		t.Fatal("Attach hook never ran")
	}
	return col
}

// TestConservationAcrossCombos checks the package's central invariant on
// every paper combo: the sum of XmitData over all fabric channels equals
// the sum over delivered messages of bytes x path-hops.
func TestConservationAcrossCombos(t *testing.T) {
	for _, combo := range exp.PaperCombos() {
		combo := combo
		t.Run(combo.Name, func(t *testing.T) {
			col := runWithCollector(t, combo, 16, telemetry.All(),
				func(n int) (*workloads.Instance, error) {
					return workloads.BuildIMB("alltoall", n, 64<<10)
				})
			sum := col.FCTSummary()
			if sum.N == 0 || sum.Delivered != sum.N {
				t.Fatalf("want all messages delivered, got %d of %d", sum.Delivered, sum.N)
			}
			got := col.Chans.TotalXmitData()
			want := sum.BytesHops
			if want == 0 {
				t.Fatal("no bytes-hops accumulated")
			}
			if rel := math.Abs(got-want) / want; rel > 1e-6 {
				t.Fatalf("conservation violated: XmitData sum %.6g, bytes*hops %.6g (rel %.3g)",
					got, want, rel)
			}
		})
	}
}

// TestXmitWaitIffContention checks the PortXmitWait analogue fires exactly
// when contention exists: positive under the paper's 7-to-1 incast, zero
// for an uncontended single stream.
func TestXmitWaitIffContention(t *testing.T) {
	hx := exp.PaperCombos()[2]
	incast := func(n int) func(int) (*workloads.Instance, error) {
		return func(int) (*workloads.Instance, error) { return workloads.BuildIncast(n, 1<<20) }
	}

	col := runWithCollector(t, hx, 8, telemetry.All(), incast(8))
	if _, w := col.Chans.MaxWait(); w <= 0 {
		t.Fatalf("7-to-1 incast: want positive max XmitWait, got %v", w)
	}

	col = runWithCollector(t, hx, 2, telemetry.All(), incast(2))
	if c, w := col.Chans.MaxWait(); w != 0 {
		t.Fatalf("single uncontended stream: want zero XmitWait, got %v on channel %d", w, c)
	}
	if col.Chans.HCAWait != 0 {
		t.Fatalf("single uncontended stream: want zero HCAWait, got %v", col.Chans.HCAWait)
	}
}

// TestFatTreeHotterThanHyperX reproduces the paper's counter diagnosis on
// the small planes: under concurrent per-switch-group incasts the fat-tree
// funnels flows through shared downward links, so its hottest channel
// accumulates strictly more XmitWait than any HyperX channel.
func TestFatTreeHotterThanHyperX(t *testing.T) {
	build := func(int) (*workloads.Instance, error) {
		return workloads.BuildGroupedIncast(32, 4, 1<<20)
	}
	ft := runWithCollector(t, exp.PaperCombos()[0], 32, telemetry.All(), build)
	hx := runWithCollector(t, exp.PaperCombos()[2], 32, telemetry.All(), build)
	_, ftWait := ft.Chans.MaxWait()
	_, hxWait := hx.Chans.MaxWait()
	if ftWait <= hxWait {
		t.Fatalf("want Fat-Tree max XmitWait > HyperX, got FT %v vs HX %v", ftWait, hxWait)
	}
}

// TestActiveHWM checks the concurrent-flow high-watermark sees the incast
// convergence (7 flows into the receiver's delivery channel).
func TestActiveHWM(t *testing.T) {
	col := runWithCollector(t, exp.PaperCombos()[2], 8, telemetry.All(),
		func(int) (*workloads.Instance, error) { return workloads.BuildIncast(8, 1<<20) })
	if got := col.Chans.MaxActive(); got != 7 {
		t.Fatalf("7-to-1 incast: want max concurrent flows 7, got %d", got)
	}
}

// TestTraceAndMetricsExport round-trips the streamed Chrome trace and
// JSONL outputs: the trace must be valid trace_event JSON with one span per
// message, and every JSONL line must parse with the run line repeating the
// conservation identity.
func TestTraceAndMetricsExport(t *testing.T) {
	var metrics, trace bytes.Buffer
	col := runWithSinks(t, exp.PaperCombos()[0], 8, telemetry.All(),
		func(n int) (*workloads.Instance, error) {
			return workloads.BuildIMB("alltoall", n, 64<<10)
		}, telemetry.NewJSONLSink(&metrics), telemetry.NewTraceSink(&trace))
	if err := col.FinishStream(); err != nil {
		t.Fatal(err)
	}
	if err := col.FinishTraceStream(); err != nil {
		t.Fatal(err)
	}

	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	spans := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "" || ev.Name == "" {
			t.Fatalf("trace event missing ph/name: %+v", ev)
		}
		if ev.Ph == "X" && ev.Cat == "msg" {
			spans++
		}
	}

	var run struct {
		Kind      string  `json:"kind"`
		XmitData  float64 `json:"xmit_data_total"`
		BytesHops float64 `json:"bytes_hops"`
	}
	lines := strings.Split(strings.TrimSpace(metrics.String()), "\n")
	kinds := map[string]int{}
	for _, line := range lines {
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		kinds[probe.Kind]++
		if probe.Kind == "run" {
			if err := json.Unmarshal([]byte(line), &run); err != nil {
				t.Fatal(err)
			}
		}
	}
	if kinds["run"] != 1 || kinds["msg"] == 0 || kinds["chan"] == 0 {
		t.Fatalf("want one run line plus msg and chan lines, got %v", kinds)
	}
	if spans != kinds["msg"] {
		t.Fatalf("%d message spans in the trace for %d msg lines", spans, kinds["msg"])
	}
	if run.BytesHops == 0 || math.Abs(run.XmitData-run.BytesHops)/run.BytesHops > 1e-6 {
		t.Fatalf("run line conservation: xmit_data_total %.6g vs bytes_hops %.6g",
			run.XmitData, run.BytesHops)
	}
}

// TestFaultScenarioTrace checks the SM's life shows up on the timeline:
// fault-injection instants and sweep spans.
func TestFaultScenarioTrace(t *testing.T) {
	m, err := exp.BuildMachine(exp.PaperCombos()[2], exp.MachineConfig{Small: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New(m.G, telemetry.All())
	var buf bytes.Buffer
	col.SetTraceSink(telemetry.NewTraceSink(&buf))
	_, err = exp.RunFaultScenario(exp.FaultSpec{
		Machine: m, Nodes: 16, Failures: 2, Seed: 5, Telemetry: col,
		Build: func(n int) (*workloads.Instance, error) {
			return workloads.BuildIMB("alltoall", n, 256<<10)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.FinishTraceStream(); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	for _, ev := range tr.TraceEvents {
		cats[ev.Cat]++
	}
	if cats["fault"] == 0 {
		t.Fatalf("want fault instants on the SM timeline, got categories %v", cats)
	}
	if cats["sm"] == 0 {
		t.Fatalf("want SM sweep spans on the timeline, got categories %v", cats)
	}
}

// TestFCTSummaryPercentiles pins the quantile math on a hand-built
// record set: the nearest-rank sample (50 ms for p50, 99 ms for p99)
// reported as its histogram bucket's midpoint, within 2^-HistSubBits of
// the sample; mean and max are exact.
func TestFCTSummaryPercentiles(t *testing.T) {
	col := telemetry.New(nil, telemetry.Options{Messages: true})
	for i := 1; i <= 100; i++ {
		rec := col.StartMsg(0, 1, 10, 0)
		col.MsgWired(rec, 0)
		col.MsgDelivered(rec, sim.Time(i)*sim.Time(sim.Millisecond), 3, false)
	}
	s := col.FCTSummary()
	if s.N != 100 || s.Delivered != 100 {
		t.Fatalf("want 100 delivered records, got %d/%d", s.Delivered, s.N)
	}
	approx := func(got, want sim.Duration) bool {
		return math.Abs(float64(got-want)) < 1e-9
	}
	if !approx(s.P50, 50.069504*sim.Millisecond) {
		t.Errorf("p50 = %v, want 50.069504ms (bucket midpoint of the 50ms sample)", s.P50)
	}
	if !approx(s.P99, 99.090432*sim.Millisecond) {
		t.Errorf("p99 = %v, want 99.090432ms (bucket midpoint of the 99ms sample)", s.P99)
	}
	for _, c := range []struct{ got, sample sim.Duration }{{s.P50, 50 * sim.Millisecond}, {s.P99, 99 * sim.Millisecond}} {
		if math.Abs(float64(c.got-c.sample)) > float64(c.sample)/(1<<telemetry.HistSubBits) {
			t.Errorf("quantile %v outside the histogram bound of its %v sample", c.got, c.sample)
		}
	}
	if !approx(s.Mean, 50.5*sim.Millisecond) {
		t.Errorf("mean = %v, want 50.5ms", s.Mean)
	}
	if !approx(s.Max, 100*sim.Millisecond) {
		t.Errorf("max = %v, want 100ms", s.Max)
	}
	if s.BytesHops != 100*10*3 {
		t.Errorf("bytes*hops = %v, want 3000", s.BytesHops)
	}
}

// TestDisabledCollectorIsInert checks the zero-cost path: a nil collector
// accepts every hook without recording or panicking.
func TestDisabledCollectorIsInert(t *testing.T) {
	var col *telemetry.Collector
	rec := col.StartMsg(0, 1, 10, 0)
	if rec != -1 {
		t.Fatalf("nil collector StartMsg: want -1, got %d", rec)
	}
	col.MsgWired(rec, 0)
	col.MsgDelivered(rec, 0, 2, false)
	col.MsgRetry(rec)
	col.MsgGiveUp(rec, 0)
	col.Span(1, 0, "cat", "name", 0, 1, nil)
	col.Instant(1, 0, "cat", "name", 0, nil)
}

// TestUnattachedCollectorAllocFree: with message and trace recording on
// but no sink attached, a message lifecycle and the trace hooks build
// nothing — records fold into the summary aggregates and are dropped.
func TestUnattachedCollectorAllocFree(t *testing.T) {
	col := telemetry.New(nil, telemetry.Options{Messages: true, Trace: true})
	lifecycle := func() {
		rec := col.StartMsg(0, 1, 10, 0)
		col.MsgWired(rec, 0)
		col.MsgRetry(rec)
		col.MsgDelivered(rec, sim.Time(sim.Millisecond), 3, false)
		col.Span(telemetry.TracePidSM, 1, "sm", "sm-sweep", 0, 1, nil)
		col.Instant(telemetry.TracePidSM, 0, "fault", "down", 0, nil)
	}
	lifecycle() // grow the slot table and the FCT histogram once
	if allocs := testing.AllocsPerRun(100, lifecycle); allocs != 0 {
		t.Errorf("unattached collector allocates %v per message lifecycle, want 0", allocs)
	}
	if s := col.FCTSummary(); s.N != 102 || s.Delivered != 102 {
		t.Errorf("summary counted %d/%d lifecycles, want 102/102", s.Delivered, s.N)
	}
}

// TestConservationUnderPartialRecomputes drives the solver through a
// workload of four disjoint incast groups — exactly the shape where its
// dirty-region recompute touches only a fraction of the fabric per settle
// — and checks that every message is delivered and the bytes x hops
// identity still holds: conservation must survive partial recomputes.
func TestConservationUnderPartialRecomputes(t *testing.T) {
	build := func(int) (*workloads.Instance, error) {
		return workloads.BuildGroupedIncast(32, 4, 1<<20)
	}
	col := runWithCollector(t, exp.PaperCombos()[2], 32, telemetry.All(), build) // HyperX
	sum := col.FCTSummary()
	if sum.N == 0 || sum.Delivered != sum.N {
		t.Fatalf("want all messages delivered, got %d of %d", sum.Delivered, sum.N)
	}
	got, want := col.Chans.TotalXmitData(), sum.BytesHops
	if want == 0 || math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("conservation violated: XmitData sum %.6g, bytes*hops %.6g", got, want)
	}
}

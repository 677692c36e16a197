package exp

import (
	"fmt"
	"time"

	"github.com/hpcsim/t2hx/internal/prof"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
)

// ScaleSpec drives a memory-bounded large-terminal endurance run: a HyperX
// lattice with enough terminals per switch to pass the 32k-node mark, under
// a fixed window of in-flight messages. The windowed closed loop is what
// makes the run tractable — the flow solver's working set is the window,
// not the terminal count, so the dominant memory is the dense per-terminal
// state (flow-table slots, node channels, forwarding tables), which is
// exactly what the arena/SoA refactor made cheap.
type ScaleSpec struct {
	// S is the HyperX lattice shape; nil selects the paper's 12x8.
	S []int
	// T is the terminal count per switch; 0 selects 342, which brings the
	// 12x8 lattice to 32832 terminals.
	T int
	// Routing is the table engine: any engine of the engine table that
	// runs on a HyperX; "" selects hxmin, whose minimal dimension-order
	// tables keep table-build time linear in terminals.
	Routing string
	// Window is the number of concurrently in-flight messages; 0 selects
	// 256 and a negative window is an error. Each delivery immediately
	// launches the next message, so the window stays full until the budget
	// runs out.
	Window int
	// Messages is the delivered-message budget; 0 selects 1_000_000.
	Messages uint64
	// MsgBytes is the payload per message; 0 selects 64 KiB and a
	// negative size is an error.
	MsgBytes int64
	// Strides is the number of distinct source-to-destination index
	// offsets the generator cycles through; 0 selects 8. Bounding the
	// stride set bounds the fabric's resolved-path cache to one entry per
	// (source, stride) pair actually exercised.
	Strides int
	// Seed drives nothing today (the generator is fully deterministic) but
	// is threaded into the fabric's PML randomness.
	Seed uint64
	// Instrumented attaches the full observability stack — IB-style
	// channel counters, per-message FCT records, the engine queue-depth
	// probe and a streaming sink — exactly as a counter-reading experiment
	// would. Since the event core went allocation-free and counter
	// integration became region-local, the instrumented run costs within a
	// few percent of the blind run (EXPERIMENTS.md); the flag exists so
	// BenchmarkScaleInstrumented can time that comparison. The run also
	// checks one streamed msg line per delivery and XmitData of at least
	// the delivered payload.
	Instrumented bool
	// Progress, when set, is invoked every ProgressEvery deliveries (and
	// once at the end) with the running total, the simulated clock, and
	// the engine's executed-event count.
	Progress      func(delivered uint64, now sim.Time, events uint64)
	ProgressEvery uint64
}

// ScaleResult reports what the run cost, in simulated and wall time.
type ScaleResult struct {
	Terminals int
	Switches  int
	Delivered uint64
	// DeliveredBytes is the summed payload of delivered messages.
	DeliveredBytes float64
	// SimElapsed is the simulated clock at drain.
	SimElapsed sim.Time
	// BuildWall covers topology + table construction, RunWall the event
	// loop.
	BuildWall time.Duration
	RunWall   time.Duration
	// Recomputes counts flow-network rate recomputations.
	Recomputes uint64
	// Events is the engine's executed-event count — with RunWall, the
	// events/s throughput of the event core itself.
	Events uint64
	// PeakRSSBytes is the process high-water RSS after the run (0 where
	// the platform cannot report it). Note it is process-wide: under `go
	// test` it includes whatever earlier tests peaked at.
	PeakRSSBytes uint64
}

// scaleStrides returns count distinct source-to-destination index offsets
// in [1, n-1], spread across the index space so consecutive messages
// exercise intra-row, intra-column and diagonal traffic. The generator
// pairs source i%n with stride i%len(strides); bounding the stride set
// bounds distinct (source, stride) pairs — and so the fabric's path cache.
// count is clamped to n-1 (only that many distinct non-self offsets
// exist; the old modular formula silently emitted duplicates here), and
// n < 2 is an error rather than a degenerate loop — on a one-terminal
// lattice every send would be a self-send.
func scaleStrides(n, count int) ([]int, error) {
	if n < 2 {
		return nil, fmt.Errorf("exp: scale run needs at least 2 terminals, got %d (every send would be a self-send)", n)
	}
	if count < 1 {
		count = 1
	}
	if count > n-1 {
		count = n - 1
	}
	step := (n - 1) / count // >= 1 after the clamp
	strides := make([]int, count)
	for k := range strides {
		strides[k] = 1 + k*step
	}
	return strides, nil
}

// RunScale builds the lattice and runs the windowed message loop until the
// delivery budget is met.
func RunScale(spec ScaleSpec) (*ScaleResult, error) {
	if spec.Window < 0 {
		return nil, fmt.Errorf("exp: scale run Window must not be negative, got %d", spec.Window)
	}
	if spec.MsgBytes < 0 {
		return nil, fmt.Errorf("exp: scale run MsgBytes must not be negative, got %d", spec.MsgBytes)
	}
	if spec.S == nil {
		spec.S = []int{12, 8}
	}
	if spec.T == 0 {
		spec.T = 342
	}
	if spec.Routing == "" {
		spec.Routing = "hxmin"
	}
	if spec.Window == 0 {
		spec.Window = 256
	}
	if spec.Messages == 0 {
		spec.Messages = 1_000_000
	}
	if spec.MsgBytes == 0 {
		spec.MsgBytes = 64 * 1024
	}
	if spec.Strides == 0 {
		spec.Strides = 8
	}
	if spec.ProgressEvery == 0 {
		spec.ProgressEvery = 1 << 16
	}

	buildStart := time.Now()
	hx, err := topo.BuildHyperX(topo.HyperXConfig{
		S: spec.S, T: spec.T,
		Bandwidth: topo.QDRBandwidth, Latency: topo.QDRLinkLatency,
	})
	if err != nil {
		return nil, err
	}
	// The lattice is one uncached plane: its tables are built once and
	// would only crowd the table cache.
	p := &Plane{Spec: PlaneSpec{Topology: "hyperx", Routing: spec.Routing}, G: hx.Graph, HX: hx}
	if p.Tables, err = p.buildTables(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	f, err := p.NewFabric(eng, spec.Seed)
	if err != nil {
		return nil, err
	}
	var col *telemetry.Collector
	var sink *telemetry.CountSink
	if spec.Instrumented {
		// The full observability stack of a counter-reading experiment:
		// channel counters, message records, the engine probe, and a
		// streaming sink draining closed records as they happen.
		col = telemetry.New(hx.Graph, telemetry.Options{Counters: true, Messages: true})
		sink = telemetry.NewCountSink()
		col.SetSink(sink)
		f.AttachTelemetry(col)
	}
	res := &ScaleResult{
		Terminals: hx.Graph.NumTerminals(),
		Switches:  hx.Graph.NumSwitches(),
		BuildWall: time.Since(buildStart),
	}

	terms := hx.Graph.Terminals()
	n := len(terms)
	if spec.Window > n {
		spec.Window = n
	}
	strides, err := scaleStrides(n, spec.Strides)
	if err != nil {
		return nil, err
	}

	var sent, delivered, lastProgress uint64
	var onDelivered func(at sim.Time)
	sendNext := func() {
		if sent >= spec.Messages {
			return
		}
		i := sent
		sent++
		srcIdx := int(i % uint64(n))
		// Strides are in [1, n-1], so dst never aliases src.
		dstIdx := (srcIdx + strides[int(i)%len(strides)]) % n
		f.Send(terms[srcIdx], terms[dstIdx], spec.MsgBytes, onDelivered)
	}
	onDelivered = func(at sim.Time) {
		delivered++
		if spec.Progress != nil && delivered%spec.ProgressEvery == 0 {
			lastProgress = delivered
			spec.Progress(delivered, at, eng.Processed)
		}
		sendNext()
	}

	runStart := time.Now()
	for i := 0; i < spec.Window; i++ {
		sendNext()
	}
	eng.Run()
	res.RunWall = time.Since(runStart)
	res.SimElapsed = eng.Now()
	res.Delivered = f.Delivered
	res.DeliveredBytes = f.DeliveredBytes
	res.Recomputes = f.Net.Recomputes
	res.Events = eng.Processed
	res.PeakRSSBytes = prof.PeakRSSBytes()
	if spec.Instrumented {
		// End-of-run snapshot boundary: the footer's accessors flush the
		// lazily-deferred counter integrals, after which the conservation
		// identity must hold exactly for the delivered traffic.
		if err := col.FinishStream(); err != nil {
			return res, err
		}
		want := float64(res.Delivered) * float64(spec.MsgBytes)
		if got := sink.Count("msg"); got != res.Delivered {
			return res, fmt.Errorf("exp: instrumented scale run streamed %d msg lines, delivered %d", got, res.Delivered)
		}
		if total := col.Chans.TotalXmitData(); total < want {
			return res, fmt.Errorf("exp: instrumented scale run moved %.0f fabric bytes < %.0f delivered payload bytes", total, want)
		}
	}
	// Final progress call only when the drain left deliveries unreported:
	// when Messages is a multiple of ProgressEvery, the last delivery
	// already fired the callback with these exact totals.
	if spec.Progress != nil && delivered != lastProgress {
		spec.Progress(delivered, res.SimElapsed, res.Events)
	}
	if res.Delivered != spec.Messages {
		return res, fmt.Errorf("exp: scale run drained with %d of %d messages delivered",
			res.Delivered, spec.Messages)
	}
	return res, nil
}

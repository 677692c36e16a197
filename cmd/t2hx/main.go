// Command t2hx runs the paper's experiments on the simulated planes: one
// subcommand per experiment, each with its own flags. A flag the
// subcommand does not read is an error, not a silent no-op.
//
//	t2hx list                       combos and benchmarks
//	t2hx run -bench … [flags]       one benchmark on one machine (Figs 4–6)
//	t2hx sweep -bench … [flags]     one benchmark over every paper combo x -sizes
//	t2hx faults [flags]             runtime link failures and SM re-sweeps
//	t2hx degraded [flags]           degraded-topology survival sweep
//	t2hx scale [flags]              32k-terminal endurance run
//
// Examples:
//
//	t2hx run -combo 0 -bench imb:alltoall -n 28 -size 1048576
//	t2hx run -combo 4 -bench app:MILC -n 32 -trials 5
//	t2hx run -combo 2 -bench baidu -n 56 -size 1048576
//	t2hx run -combo 2 -bench ebb -n 56 -samples 100
//	t2hx run -combo 4 -bench mpigraph -n 28
//	t2hx faults -n 28 -size 262144
//	t2hx faults -combo 4 -failures 15 -detect 1ms -sweep-latency 4ms
//
// Multicore batches (results are bit-identical for any -j):
//
//	t2hx sweep -bench imb:alltoall -n 28 -sizes 4096,65536,1048576 -j 8
//	t2hx faults -j 3
//
// Dual-plane machines (TSUBAME2's Fat-Tree rail + HyperX rail):
//
//	t2hx run -combo 5 -bench imb:alltoall -n 28
//	t2hx run -planes ft:updown,hyperx:parx -policy sizesplit:16384 -bench imb:alltoall -n 28
//	t2hx run -planes ft:ftree,hx:parx -policy failover:1 -bench incast -n 16 -small
//
// Observability (IB-style counters, FCT records, Chrome trace):
//
//	t2hx run -combo 0 -bench incast -n 8 -counters 10
//	t2hx run -combo 2 -bench imb:alltoall -n 16 -metrics-out run.jsonl -trace-out run.json
//	t2hx faults -combo 2 -trace-out sweep.json -counters 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/hpcsim/t2hx/internal/cli"
	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/place"
	"github.com/hpcsim/t2hx/internal/sim"
	"github.com/hpcsim/t2hx/internal/telemetry"
	"github.com/hpcsim/t2hx/internal/topo"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// subcommands lists the experiments in usage order.
var subcommands = []cli.Command{
	{Name: "list", Summary: "list combos and benchmarks", Run: cmdList},
	{Name: "run", Summary: "one benchmark on one combo or -planes machine", Run: cmdRun},
	{Name: "sweep", Summary: "one benchmark over every paper combo x -sizes on the -j pool", Run: cmdSweep},
	{Name: "faults", Summary: "inject runtime link failures mid-run and re-sweep, per combo", Run: cmdFaults},
	{Name: "degraded", Summary: "seeded failure-chain survival sweep on the HyperX plane", Run: cmdDegraded},
	{Name: "scale", Summary: "windowed endurance run on a large HyperX (default 32832 terminals)", Run: cmdScale},
}

func main() { os.Exit(dispatch(os.Args[1:])) }

// dispatch runs the subcommand args[0] names and returns the exit status.
func dispatch(args []string) int { return cli.Dispatch("t2hx", subcommands, args) }

// comboFlags describe a custom combo, which replaces the -combo selection.
type comboFlags struct {
	topo, routing, placement string
}

func addComboFlags(fs *flag.FlagSet) *comboFlags {
	c := &comboFlags{}
	fs.StringVar(&c.topo, "topo", "", "custom combo: topology (fattree|hyperx); overrides -combo")
	fs.StringVar(&c.routing, "routing", "", "custom combo: routing ("+engineNames("")+")")
	fs.StringVar(&c.placement, "placement", "linear", "custom combo: placement (linear|clustered|random)")
	return c
}

// engineNames lists the engine table's routing names that run on a
// topology ("" for every name) for flag help.
func engineNames(topology string) string {
	var names []string
	for _, e := range exp.Engines() {
		if topology == "" || e.RunsOn(topology) {
			names = append(names, e.Name)
		}
	}
	return strings.Join(names, "|")
}

// custom returns the combo -topo and -routing describe; ok is false when
// neither was given.
func (c *comboFlags) custom() (combo exp.Combo, ok bool, err error) {
	if c.topo == "" && c.routing == "" {
		return exp.Combo{}, false, nil
	}
	if c.topo == "" || c.routing == "" {
		return exp.Combo{}, false, fmt.Errorf("custom combos need both -topo and -routing")
	}
	return exp.Combo{
		Name:      fmt.Sprintf("%s / %s / %s", c.topo, c.routing, c.placement),
		Topology:  c.topo,
		Routing:   c.routing,
		Placement: place.Strategy(c.placement),
	}, true, nil
}

// comboAt returns combo i of the list t2hx list prints.
func comboAt(i int64) (exp.Combo, error) {
	combos := exp.AllCombos()
	if i < 0 || i >= int64(len(combos)) {
		return exp.Combo{}, fmt.Errorf("combo index %d out of range", i)
	}
	return combos[i], nil
}

// benchFlags pick the workload: the benchmark, its rank count and its
// message size.
type benchFlags struct {
	bench string
	n     int
	size  int64
}

// trialBenches are the benchmarks resolve turns into trial builders.
const trialBenches = "imb:<op>, incast[:group], app:<abbrev>, baidu"

func addBenchFlags(fs *flag.FlagSet, bench, benches string) *benchFlags {
	b := &benchFlags{}
	fs.StringVar(&b.bench, "bench", bench, "benchmark: "+benches)
	fs.IntVar(&b.n, "n", 28, "node count")
	fs.Int64Var(&b.size, "size", 1<<20, "message size / array length in bytes")
	return b
}

// resolve maps a benchmark and message size to its trial builder and the
// unit of its metric: the one resolver of run, sweep, faults and degraded.
// ebb and mpigraph sample bandwidth instead of running trials; they
// resolve to a nil builder, which only run accepts.
func resolve(bench string, size int64) (func(n int) (*workloads.Instance, error), string, error) {
	if size < 1 {
		return nil, "", fmt.Errorf("bad -size %d: want at least 1 byte", size)
	}
	name, arg, hasArg := strings.Cut(bench, ":")
	switch {
	case name == "imb" && hasArg:
		return func(n int) (*workloads.Instance, error) { return workloads.BuildIMB(arg, n, size) }, "us/op", nil
	case bench == "incast":
		return func(n int) (*workloads.Instance, error) { return workloads.BuildIncast(n, size) }, "us/op", nil
	case name == "incast":
		group, err := strconv.Atoi(arg)
		if err != nil {
			return nil, "", fmt.Errorf("bad incast group %q", arg)
		}
		return func(n int) (*workloads.Instance, error) { return workloads.BuildGroupedIncast(n, group, size) }, "us/op", nil
	case name == "app" && hasArg:
		app, err := workloads.FindApp(arg)
		if err != nil {
			return nil, "", err
		}
		return func(n int) (*workloads.Instance, error) { return app.Instance(n), nil }, app.Metric, nil
	case bench == "baidu":
		return func(n int) (*workloads.Instance, error) { return workloads.BuildBaiduAllreduce(n, size/4), nil }, "s", nil
	case bench == "ebb" || bench == "mpigraph":
		return nil, "", nil
	}
	return nil, "", fmt.Errorf("unknown benchmark %q", bench)
}

// trialBuilder is resolve for the subcommands that only run trials.
func trialBuilder(bench string, size int64) (func(n int) (*workloads.Instance, error), error) {
	build, _, err := resolve(bench, size)
	if err == nil && build == nil {
		err = fmt.Errorf("%s samples bandwidth instead of running trials; use t2hx run (trial benchmarks: %s)", bench, trialBenches)
	}
	return build, err
}

// telFlags select the observability artifacts. The collector always
// records counters; message records and trace events are only enabled
// when an output file wants them, and both stream to their files as they
// close (the sinks open with the collector, report finishes them), so a
// 10k-terminal run never holds its records in memory.
type telFlags struct {
	metricsOut, traceOut string
	topN                 int
}

func addTelFlags(fs *flag.FlagSet) *telFlags {
	t := &telFlags{}
	fs.StringVar(&t.metricsOut, "metrics-out", "", "stream run metrics + per-message FCT records + histograms + channel counters as JSONL to this file (O(1) memory at any run length)")
	fs.StringVar(&t.traceOut, "trace-out", "", "stream a Chrome trace_event JSON timeline to this file (open in chrome://tracing or Perfetto)")
	fs.IntVar(&t.topN, "counters", 0, "after the run, print the N hottest channels by XmitWait (perfquery-style readout)")
	return t
}

func (t *telFlags) enabled() bool {
	return t.metricsOut != "" || t.traceOut != "" || t.topN > 0
}

func (t *telFlags) options() telemetry.Options {
	return telemetry.Options{Counters: true, Messages: t.metricsOut != "", Trace: t.traceOut != ""}
}

// open creates the output files, with suffix before the extension, and
// streams tm into them.
func (t *telFlags) open(tm *telemetry.Multi, suffix string) error {
	if t.metricsOut != "" {
		w, err := os.Create(outName(t.metricsOut, suffix))
		if err != nil {
			return err
		}
		tm.SetSink(telemetry.NewJSONLSink(w))
	}
	if t.traceOut != "" {
		w, err := os.Create(outName(t.traceOut, suffix))
		if err != nil {
			return err
		}
		tm.SetTraceSink(telemetry.NewTraceSink(w))
	}
	return nil
}

// attach hooks telemetry into a run's messenger, one collector per plane
// of the machine sharing the output files. It returns nil when no
// observability flag was given.
func (t *telFlags) attach(m *exp.Machine, msgr fabric.Messenger) (*telemetry.Multi, error) {
	if !t.enabled() {
		return nil, nil
	}
	tm, err := m.AttachTelemetry(msgr, t.options())
	if err != nil {
		return nil, err
	}
	return tm, t.open(tm, "")
}

// report emits the post-run artifacts: the perfquery-style hot-channel
// table on stdout (one per plane, headed by its name, on a multi-plane
// machine), then finishes the metrics and trace streams opened under
// suffix. A failed stream (full disk, closed pipe) is an error rather than
// a silently truncated file. A nil tm (no observability flag) reports
// nothing.
func (t *telFlags) report(tm *telemetry.Multi, suffix string) error {
	if tm == nil {
		return nil
	}
	for _, c := range tm.Planes {
		if t.topN <= 0 || c.Chans == nil {
			continue
		}
		if len(tm.Planes) > 1 {
			fmt.Printf("\n[%s]\n", c.PlaneName)
		} else {
			fmt.Println()
		}
		if err := telemetry.FprintHotLinks(os.Stdout, c.Chans, t.topN, c.Now()); err != nil {
			return err
		}
	}
	if t.metricsOut != "" {
		if err := tm.FinishStream(); err != nil {
			return fmt.Errorf("metrics export: %w", err)
		}
		fmt.Printf("metrics written to %s\n", outName(t.metricsOut, suffix))
	}
	if t.traceOut != "" {
		if err := tm.FinishTraceStream(); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		fmt.Printf("trace written to %s (open in chrome://tracing)\n", outName(t.traceOut, suffix))
	}
	return nil
}

// runnerFlags are the worker-pool flags of the batch subcommands: the pool
// size and its live stats, which the runner's OnStats ticker publishes.
type runnerFlags struct {
	jobs        int
	progress    time.Duration
	progressOut string
}

const defaultProgressInterval = 2 * time.Second

// addRunnerFlags registers -j, -progress (default progress; 0 is off) and
// -progress-out.
func addRunnerFlags(fs *flag.FlagSet, progress time.Duration) *runnerFlags {
	r := &runnerFlags{}
	fs.IntVar(&r.jobs, "j", 0, "worker pool size (0 = GOMAXPROCS; results are identical for any -j)")
	fs.DurationVar(&r.progress, "progress", progress, "refresh a live stats line on stderr (cells/s, ETA, worker utilization, table-cache hit rate) at this interval; 0 turns it off")
	fs.StringVar(&r.progressOut, "progress-out", "", "append live stats snapshots as JSONL \"progress\" lines to this file")
	return r
}

// runner returns the pool with the stats hook wired in. finish must run
// after the batch: it closes the -progress-out file and reports its
// errors.
func (f *runnerFlags) runner(seed uint64) (r exp.Runner, finish func() error, err error) {
	r = exp.Runner{Workers: f.jobs, BaseSeed: seed}
	finish = func() error { return nil }
	if f.progress <= 0 && f.progressOut == "" {
		return r, finish, nil
	}
	r.StatsInterval = f.progress
	if r.StatsInterval <= 0 {
		r.StatsInterval = defaultProgressInterval
	}
	r.Cache = exp.DefaultTableCache
	var sink *telemetry.JSONSink
	if f.progressOut != "" {
		w, err := os.Create(f.progressOut)
		if err != nil {
			return r, nil, err
		}
		// Flush per snapshot: the file exists to be tailed while the
		// batch runs.
		sink = telemetry.NewJSONLSink(w).FlushEvery(1)
		finish = func() error {
			if err := sink.Close(); err != nil {
				return fmt.Errorf("progress-out: %w", err)
			}
			return nil
		}
	}
	human := f.progress > 0
	// The ticker and the Final snapshot never overlap, so no lock.
	r.OnStats = func(s exp.RunnerStats) {
		if human {
			line := fmt.Sprintf("\r  [%d/%d] %.2f cells/s  util %3.0f%%", s.Done, s.Total, s.CellsPerSec, 100*s.Utilization)
			if s.ETA > 0 {
				line += fmt.Sprintf("  eta %s", s.ETA.Round(time.Second))
			}
			if s.Cache != nil && s.Cache.Lookups() > 0 {
				line += fmt.Sprintf("  cache %.0f%% hit", 100*s.Cache.HitRate())
			}
			fmt.Fprintf(os.Stderr, "%-78s", line)
			if s.Final {
				fmt.Fprintln(os.Stderr)
			}
		}
		if sink != nil {
			sink.Write(s) //nolint:errcheck // sticky; surfaced by Close in finish
		}
	}
	return r, finish, nil
}

func cmdList(args []string) error {
	if err := cli.Parse(cli.NewFlagSet("t2hx", "list"), args); err != nil {
		return err
	}
	fmt.Println("Combos (Sec. 4.4.3 plus the dual-plane machine):")
	for i, c := range exp.AllCombos() {
		fmt.Printf("  %d: %s\n", i, c.Name)
	}
	fmt.Println("Benchmarks:")
	fmt.Println("  imb:" + strings.Join(workloads.IMBOps(), " imb:"))
	fmt.Print("  app:")
	for _, a := range workloads.Registry() {
		fmt.Printf("%s ", a.Abbrev)
	}
	fmt.Println("\n  baidu ebb mpigraph")
	return nil
}

// cmdRun runs one benchmark on one of the paper's combos, a custom combo,
// or a multi-plane machine built from -planes specs, and prints per-trial
// metrics with whisker statistics.
func cmdRun(args []string) error {
	fs := cli.NewFlagSet("t2hx", "run")
	comboIdx := fs.Int64("combo", 0, "combo index (see t2hx list)")
	cf := addComboFlags(fs)
	planesF := fs.String("planes", "", "multi-plane machine: comma-separated topology:routing[:name] specs (e.g. ft:updown,hyperx:parx); overrides -combo and -topo")
	policy := fs.String("policy", "", "plane selection policy: single[:plane], sizesplit[:bytes], roundrobin, striped, failover[:primary]")
	wl := addBenchFlags(fs, "", trialBenches+", ebb, mpigraph")
	trials := fs.Int("trials", 3, "repetitions")
	samples := fs.Int("samples", 100, "eBB bisection samples")
	mf := cli.AddMachineFlags(fs, true)
	tel := addTelFlags(fs)
	profile := cli.AddProfFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if wl.bench == "" {
		return cli.Usagef(fs, "run needs a -bench")
	}
	return profile(func() error {
		build, unit, err := resolve(wl.bench, wl.size)
		if err != nil {
			return err
		}
		combo, custom, err := cf.custom()
		if err == nil && !custom {
			combo, err = comboAt(*comboIdx)
		}
		if err != nil {
			return err
		}
		if *planesF != "" {
			specs, err := exp.ParsePlaneSpecs(*planesF)
			if err != nil {
				return err
			}
			combo = exp.Combo{
				Name:      fmt.Sprintf("custom planes %s / %s", *planesF, cf.placement),
				Placement: place.Strategy(cf.placement),
				Planes:    specs,
			}
		}
		if *policy != "" {
			combo.Policy = *policy
		}
		m, err := exp.BuildMachine(combo, mf.Config())
		if err != nil {
			return err
		}
		if m.MultiPlane() {
			fmt.Printf("combo: %s  policy: %s\n", combo.Name, m.PolicySpec())
			for i, p := range m.Planes {
				fmt.Printf("  plane %d: %s — %s (%d nodes)\n", i, p.Spec.Label(), p.G.Name, p.G.NumTerminals())
			}
		} else {
			fmt.Printf("combo: %s  plane: %s (%d nodes)\n", combo.Name, m.G.Name, m.G.NumTerminals())
		}
		if build != nil {
			return runTrials(m, wl.n, *trials, mf.Seed, build, unit, tel)
		}
		return runSampled(m, wl, *samples, mf.Seed, tel)
	})
}

// runTrials runs a trial benchmark and prints the per-trial values and
// their whisker line. The telemetry observes the final trial only, so its
// counters and trace cover a single engine timeline rather than
// overlapping runs.
func runTrials(m *exp.Machine, n, trials int, seed uint64,
	build func(int) (*workloads.Instance, error), unit string, tel *telFlags) error {
	last := max(trials-1, 0)
	var (
		tm        *telemetry.Multi
		lastMsgr  fabric.Messenger
		attachErr error
	)
	vals, _, err := exp.RunTrials(exp.TrialSpec{
		Machine: m, Nodes: n, Trials: trials, Seed: seed, Jitter: exp.TrialJitter, Build: build,
		Attach: func(t int, msgr fabric.Messenger) {
			if t == last {
				lastMsgr = msgr
				tm, attachErr = tel.attach(m, msgr)
			}
		},
	})
	if err = errors.Join(err, attachErr); err != nil {
		return err
	}
	st := exp.Summarize(vals)
	fmt.Printf("trials: ")
	for _, v := range vals {
		fmt.Printf("%.4g ", v)
	}
	fmt.Printf("\nmin %.4g | q1 %.4g | median %.4g | q3 %.4g | max %.4g  [%s]\n",
		st.Min, st.Q1, st.Median, st.Q3, st.Max, unit)
	printPlaneShares(lastMsgr)
	return tel.report(tm, "")
}

// runSampled runs ebb or mpigraph, which sample bandwidth directly over
// one messenger instead of timing trials.
func runSampled(m *exp.Machine, wl *benchFlags, samples int, seed uint64, tel *telFlags) error {
	if wl.bench == "mpigraph" && wl.n < 2 {
		return fmt.Errorf("mpigraph needs >= 2 ranks, got %d", wl.n)
	}
	ranks, err := m.Place(wl.n, seed)
	if err != nil {
		return err
	}
	msgr, err := m.NewMessenger(seed)
	if err != nil {
		return err
	}
	tm, err := tel.attach(m, msgr)
	if err != nil {
		return err
	}
	if wl.bench == "ebb" {
		res, err := workloads.EffectiveBisectionBandwidth(msgr, ranks, samples, wl.size, seed)
		if err != nil {
			return err
		}
		fmt.Printf("eBB over %d samples: mean %.3f GiB/s (min %.3f, max %.3f)\n",
			len(res.Samples), res.MeanGiB, res.MinGiB, res.MaxGiB)
	} else {
		res := workloads.MpiGraph(msgr, ranks, wl.size)
		fmt.Printf("mpiGraph avg %.3f GiB/s (min %.3f, max %.3f)\n", res.AvgGiB, res.MinGiB, res.MaxGiB)
	}
	printPlaneShares(msgr)
	return tel.report(tm, "")
}

// printPlaneShares prints the policy's traffic split after a multi-plane
// run; a no-op for plain fabrics.
func printPlaneShares(msgr fabric.Messenger) {
	mf, ok := msgr.(*fabric.MultiFabric)
	if !ok {
		return
	}
	fmt.Printf("policy %s plane shares:", mf.PolicyName())
	for p := 0; p < mf.NumPlanes(); p++ {
		share := 0.0
		if mf.Messages > 0 {
			share = 100 * float64(mf.PlaneMessages[p]) / float64(mf.Messages)
		}
		fmt.Printf("  %s %d msgs (%.1f%%)", mf.PlaneName(p), mf.PlaneMessages[p], share)
	}
	if mf.Redispatches > 0 {
		fmt.Printf("  [%d redispatched across planes]", mf.Redispatches)
	}
	fmt.Println()
}

// outName inserts a combo suffix before the extension: run.json +
// "hyperx-dfsssp" -> run.hyperx-dfsssp.json.
func outName(base, suffix string) string {
	if suffix == "" {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + suffix + ext
}

// comboSlug is a filename-safe tag for a combo: topology-routing, or for a
// plane-list combo its planes' tags joined by '+' (fattree-ftree+hyperx-parx),
// which no single-plane combo's tag can equal.
func comboSlug(c exp.Combo) string {
	if len(c.Planes) == 0 {
		return c.Topology + "-" + c.Routing
	}
	tags := make([]string, len(c.Planes))
	for i, p := range c.Planes {
		tags[i] = p.Topology + "-" + p.Routing
	}
	return strings.Join(tags, "+")
}

// cmdFaults runs the resilience scenario per combo. The scenarios run in
// parallel over the -j worker pool (each against its own machine), and
// the degradation reports print in combo order afterwards: makespans,
// re-sweep latency stats, damage counters, and goodput before/during/after
// the outage window.
func cmdFaults(args []string) error {
	fs := cli.NewFlagSet("t2hx", "faults")
	combosF := fs.String("combo", "0,2,4", "comma-separated combo indexes (see t2hx list); the default is the paper's headline trio, ftree vs DFSSSP vs PARX")
	cf := addComboFlags(fs)
	wl := addBenchFlags(fs, "imb:alltoall", trialBenches)
	failures := fs.Int("failures", 0, "runtime link failures to inject (0 = paper count: 15 HyperX / 197 Fat-Tree)")
	detect := fs.Duration("detect", 0, "SM failure-detection delay (0 = 1ms default)")
	sweepLat := fs.Duration("sweep-latency", 0, "SM re-sweep latency before tables go live (0 = 4ms default)")
	mf := cli.AddMachineFlags(fs, true)
	rf := addRunnerFlags(fs, 0)
	tel := addTelFlags(fs)
	profile := cli.AddProfFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	return profile(func() (err error) {
		build, err := trialBuilder(wl.bench, wl.size)
		if err != nil {
			return err
		}
		selected, err := faultCombos(*combosF, cf)
		if err != nil {
			return err
		}
		// Every spec is built and validated, and every output name (one
		// set of files per combo, told apart by a combo suffix) checked,
		// before a file is created: a refused batch leaves none behind.
		suffixes := make([]string, len(selected))
		specs := make([]exp.FaultSpec, len(selected))
		for i, c := range selected {
			if len(selected) > 1 {
				suffixes[i] = comboSlug(c)
			}
			if (tel.metricsOut != "" || tel.traceOut != "") && slices.Contains(suffixes[:i], suffixes[i]) {
				return fmt.Errorf("two combos would write the same %q output files; run them separately", suffixes[i])
			}
			m, err := exp.BuildMachine(c, mf.Config())
			if err != nil {
				return err
			}
			n := *failures
			if n == 0 {
				n = exp.DefaultFailures(m)
			}
			specs[i] = exp.FaultSpec{
				Machine: m, Nodes: wl.n, Failures: n, Seed: mf.Seed,
				Detect: sim.Duration(detect.Seconds()), Sweep: sim.Duration(sweepLat.Seconds()),
				Build: build,
			}
			if err := specs[i].Validate(); err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
		}
		tms := make([]*telemetry.Multi, len(selected))
		// An early return finishes the streams already opened.
		defer func() {
			for _, tm := range tms {
				if tm != nil {
					err = errors.Join(err, tm.FinishStream(), tm.FinishTraceStream())
				}
			}
		}()
		for i := range specs {
			if tel.enabled() {
				// A fault scenario runs on the machine's one plane.
				tms[i] = telemetry.NewMulti([]*topo.Graph{specs[i].Machine.G}, nil, tel.options())
				if err := tel.open(tms[i], suffixes[i]); err != nil {
					return err
				}
				specs[i].Telemetry = tms[i].Planes[0]
			}
		}
		r, finish, err := rf.runner(mf.Seed)
		if err != nil {
			return err
		}
		results, err := exp.RunFaultBatch(r, specs)
		if ferr := finish(); ferr != nil {
			return errors.Join(err, ferr)
		}
		if err != nil && results == nil {
			return err // structural rejection: nothing ran
		}
		if err != nil {
			err = fmt.Errorf("some scenarios failed:\n%v", err)
		}
		const gib = 1 << 30
		for i, c := range selected {
			m, res := specs[i].Machine, results[i]
			fmt.Printf("\n%s  plane: %s (%d nodes)\n", c.Name, m.G.Name, m.G.NumTerminals())
			fmt.Printf("  injecting %d runtime link failures into %s (%d ranks, %d B)\n",
				specs[i].Failures, wl.bench, wl.n, wl.size)
			if res == nil || res.Faulted == 0 {
				fmt.Printf("  scenario did not complete (see errors below)\n")
			} else {
				st := res.SweepStats()
				fmt.Printf("  makespan: baseline %.3f ms -> faulted %.3f ms (+%.1f%%)\n",
					1e3*float64(res.Baseline), 1e3*float64(res.Faulted), 100*res.Slowdown())
				fmt.Printf("  re-sweeps: %d (%d rejected), outage window min %.3f / median %.3f / max %.3f ms\n",
					len(res.Sweeps), len(res.Sweeps)-len(res.Latencies),
					1e3*st.Min, 1e3*st.Median, 1e3*st.Max)
				fmt.Printf("  flows torn down %d, retries %d, lost %d of %d messages\n",
					res.TornDown, res.Retries, res.GiveUps, res.Messages)
				fmt.Printf("  goodput GiB/s: before %.3f | during %.3f | after %.3f\n",
					res.GoodputBefore/gib, res.GoodputDuring/gib, res.GoodputAfter/gib)
			}
			// A failed scenario's streams are finished too: its metrics
			// end with their footer and its trace document is sealed.
			err = errors.Join(err, tel.report(tms[i], suffixes[i]))
		}
		return err
	})
}

// faultCombos resolves the combos of a faults run: the custom combo when
// -topo and -routing give one, the -combo list otherwise.
func faultCombos(list string, cf *comboFlags) ([]exp.Combo, error) {
	if c, ok, err := cf.custom(); ok || err != nil {
		return []exp.Combo{c}, err
	}
	idx, err := exp.ParseInts("combo", list, 0)
	if err != nil {
		return nil, err
	}
	combos := make([]exp.Combo, len(idx))
	for i, ix := range idx {
		if combos[i], err = comboAt(ix); err != nil {
			return nil, err
		}
	}
	return combos, nil
}

// cmdDegraded runs the at-scale degraded-topology survival sweep: seeded
// failure-chain variants per (engine x failure count) cell on the HyperX
// plane, each run through the full SM fault scenario, then aggregated into
// one row per cell with goodput, re-sweep latency, unreachable-pair and
// deadlock-margin columns.
func cmdDegraded(args []string) error {
	fs := cli.NewFlagSet("t2hx", "degraded")
	enginesF := fs.String("engines", "hxmin,hxnm", "comma-separated HyperX routing engines to compare")
	countsF := fs.String("counts", "", "comma-separated failure counts (default 0,15,30,60,90; small planes 0,3,6,9,12)")
	variants := fs.Int("variants", 25, "seeded degradation variants per cell")
	wl := addBenchFlags(fs, "imb:alltoall", trialBenches)
	detect := fs.Duration("detect", 0, "SM failure-detection delay (0 = 1ms default)")
	sweepLat := fs.Duration("sweep-latency", 0, "SM re-sweep latency before tables go live (0 = 4ms default)")
	mf := cli.AddMachineFlags(fs, false)
	rf := addRunnerFlags(fs, defaultProgressInterval)
	profile := cli.AddProfFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	return profile(func() error {
		build, err := trialBuilder(wl.bench, wl.size)
		if err != nil {
			return err
		}
		var engines []string
		for _, e := range strings.Split(*enginesF, ",") {
			if e = strings.TrimSpace(e); e != "" {
				engines = append(engines, e)
			}
		}
		countsDefault := "0,15,30,60,90"
		if mf.Small {
			countsDefault = "0,3,6,9,12"
		}
		counts, err := parseCounts(*countsF, countsDefault)
		if err != nil {
			return err
		}
		spec := exp.DegradedSpec{
			Engines:   engines,
			Workloads: []exp.DegradedWorkload{{Name: wl.bench, Build: build}},
			Counts:    counts, Variants: *variants,
			Nodes: wl.n, Small: mf.Small, Seed: mf.Seed,
			Detect: sim.Duration(detect.Seconds()), SweepLatency: sim.Duration(sweepLat.Seconds()),
		}
		r, finish, err := rf.runner(mf.Seed)
		if err != nil {
			return err
		}
		fmt.Printf("degraded survival sweep: %d engines x %d counts x %d variants = %d cells (%s, %d ranks, %d B, -j %d)\n",
			len(engines), len(counts), *variants, len(engines)*len(counts)*(*variants),
			wl.bench, wl.n, wl.size, r.WorkerCount())
		results, err := exp.RunDegraded(r, spec)
		if err = errors.Join(err, finish()); err != nil {
			return err
		}
		w := tabwriter.NewWriter(os.Stdout, 4, 0, 2, ' ', 0)
		fmt.Fprintln(w, "engine\tfailures\tsurvived\tslowdown\tgoodput(GiB/s)\tsweepP50(ms)\tsweepMax(ms)\tunreach(mean/max)\tmargin(min/mean)")
		const gib = 1 << 30
		for _, row := range exp.SummarizeDegraded(results) {
			fmt.Fprintf(w, "%s\t%d\t%d/%d\t%+.1f%%\t%.3f\t%.3f\t%.3f\t%.1f/%d\t%.3f/%.3f\n",
				row.Engine, row.Failures, row.Survived, row.Variants,
				100*row.SlowdownMed, row.GoodputDuringMed/gib,
				1e3*float64(row.SweepP50Med), 1e3*float64(row.SweepMaxMax),
				row.UnreachableMean, row.UnreachableMax,
				row.MarginMin, row.MarginMean)
		}
		w.Flush()
		printCacheStats()
		return nil
	})
}

// printCacheStats summarizes the process-wide table cache after a sweep:
// the hit rate says how much routing work the cells shared. It goes to
// stderr because at -j > 1 the totals depend on which worker reaches a
// table first, and stdout must be identical at any -j.
func printCacheStats() {
	s := exp.DefaultTableCache.Stats()
	if s.Lookups() == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "table cache: %d hits / %d lookups (%.1f%% hit rate), %d evictions\n",
		s.Hits, s.Lookups(), 100*s.HitRate(), s.Evictions)
}

// parseSizes decodes the -sizes list; empty falls back to the single
// -size value.
func parseSizes(s string, fallback int64) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return []int64{fallback}, nil
	}
	return exp.ParseInts("sizes", s, 1)
}

// parseCounts decodes the -counts list of failure counts; empty falls back
// to the list def.
func parseCounts(s, def string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		s = def
	}
	vs, err := exp.ParseInts("counts", s, 0)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(vs))
	for i, v := range vs {
		counts[i] = int(v)
	}
	return counts, nil
}

// cmdSweep runs one benchmark across all paper combos x sizes over the -j
// pool and prints one whisker line per cell, in enumeration order. Cell
// seeds derive from (-seed, cell index), so the table is bit-identical for
// any -j.
func cmdSweep(args []string) error {
	fs := cli.NewFlagSet("t2hx", "sweep")
	wl := addBenchFlags(fs, "", trialBenches)
	sizesF := fs.String("sizes", "", "comma-separated message sizes (default: the single -size)")
	trials := fs.Int("trials", 3, "repetitions per cell")
	mf := cli.AddMachineFlags(fs, true)
	rf := addRunnerFlags(fs, defaultProgressInterval)
	profile := cli.AddProfFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if wl.bench == "" {
		return cli.Usagef(fs, "sweep needs a -bench")
	}
	return profile(func() error {
		sizes, err := parseSizes(*sizesF, wl.size)
		if err != nil {
			return err
		}
		combos := exp.PaperCombos()
		var cells []exp.SweepCell
		for _, c := range combos {
			for _, sz := range sizes {
				build, err := trialBuilder(wl.bench, sz)
				if err != nil {
					return err
				}
				cells = append(cells, exp.SweepCell{
					Label: fmt.Sprintf("%-34s %9d B", c.Name, sz),
					Combo: c, Cfg: mf.Config(),
					Nodes: wl.n, Trials: *trials, Jitter: exp.TrialJitter,
					Build: build,
				})
			}
		}
		r, finish, err := rf.runner(mf.Seed)
		if err != nil {
			return err
		}
		fmt.Printf("sweep: %s over %d combos x %d sizes, %d trials each, %d workers\n",
			wl.bench, len(combos), len(sizes), *trials, r.WorkerCount())
		results, err := exp.RunSweep(r, cells)
		if err = errors.Join(err, finish()); err != nil {
			return err
		}
		fmt.Printf("%-34s %11s %10s %10s %10s %10s %10s\n",
			"combo", "size", "min", "q1", "median", "q3", "max")
		for _, res := range results {
			st := res.Stats
			fmt.Printf("%s %10.4g %10.4g %10.4g %10.4g %10.4g\n",
				res.Label, st.Min, st.Q1, st.Median, st.Q3, st.Max)
		}
		printCacheStats()
		return nil
	})
}

// cmdScale is the 32k-terminal endurance configuration (or a custom-sized
// variant) with live progress on stderr and a summary line of wall/sim
// cost and peak RSS.
func cmdScale(args []string) error {
	fs := cli.NewFlagSet("t2hx", "scale")
	t := fs.Int("t", 0, "terminals per switch (0 = 342)")
	msgs := fs.Uint64("msgs", 0, "delivered-message budget (0 = 1e6)")
	window := fs.Int("window", 0, "in-flight message window (0 = 256)")
	size := fs.Int64("size", 64<<10, "message size in bytes")
	routing := fs.String("routing", "", "table engine: "+engineNames("hyperx")+" (default hxmin)")
	seed := fs.Uint64("seed", 1, "master seed")
	profile := cli.AddProfFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	return profile(func() error {
		start := time.Now()
		res, err := exp.RunScale(exp.ScaleSpec{
			T: *t, Messages: *msgs, Window: *window,
			MsgBytes: *size, Routing: *routing, Seed: *seed,
			Progress: func(delivered uint64, now sim.Time, events uint64) {
				wall := time.Since(start)
				evps := 0.0
				if s := wall.Seconds(); s > 0 {
					evps = float64(events) / s
				}
				fmt.Fprintf(os.Stderr, "\rscale: %d delivered  sim %.3fs  wall %s  %.2fM events/s ",
					delivered, float64(now), wall.Round(time.Second), evps/1e6)
			},
		})
		fmt.Fprintln(os.Stderr)
		if err != nil {
			return err
		}
		fmt.Printf("scale run: %d terminals over %d switches\n", res.Terminals, res.Switches)
		fmt.Printf("delivered %d messages (%.2f GiB) in %.3f simulated s\n",
			res.Delivered, res.DeliveredBytes/(1<<30), float64(res.SimElapsed))
		fmt.Printf("build %s | run %s (%.0f msgs/s, %.0f events/s) | %d events | %d flow recomputes\n",
			res.BuildWall.Round(time.Millisecond), res.RunWall.Round(time.Millisecond),
			float64(res.Delivered)/res.RunWall.Seconds(), float64(res.Events)/res.RunWall.Seconds(),
			res.Events, res.Recomputes)
		if res.PeakRSSBytes > 0 {
			fmt.Printf("peak RSS %.1f MiB\n", float64(res.PeakRSSBytes)/(1<<20))
		}
		return nil
	})
}

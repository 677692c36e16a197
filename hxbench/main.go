// Command hxbench is the host-speed benchmark of the t2hx simulator. It runs
// one workload per process and prints, as its last line, one JSON object
// with the operations attempted and failed and either the end-to-end
// metrics (tracing off) or the per-layer metrics of a traced run:
//
//	bash hxbench/run.sh --workload endurance --seed 1 --seconds 10 --trace 0
//
// Simulated statistics are the correctness oracle: every unit of simulated
// work is hashed and checked against the digest recorded for the seed, so
// a change that moves simulated output fails the run instead of being
// measured as a speed-up. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hpcsim/t2hx/internal/exp"
)

func main() {
	name := flag.String("workload", "", "endurance | paper_sweep | fault_resweep")
	seed := flag.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 10, "host seconds the run phase measures")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	rev := flag.String("rev", "unknown", "source revision, recorded in the provenance line")
	spans := flag.String("spans-dir", "", "with -trace 1: write the recorded spans as JSON lines into this directory")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hxbench: need -workload endurance|paper_sweep|fault_resweep, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	p := w.params(*seed)
	if err := printJSON(os.Stdout, map[string]any{"provenance": provenance(w, p, *seed, *seconds, *trace, *rev)}); err != nil {
		fatal(err)
	}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(w, p, *seed, *seconds, *spans)
	} else {
		rep, err = runUntraced(w, p, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	for _, pr := range rep.problems {
		fmt.Fprintf(os.Stderr, "hxbench: %s\n", pr)
	}
	// A seed with no recorded digest is checked only for invariants and
	// for agreement between its units; its digest is printed so that it
	// can be compared with another revision's run on the same seed.
	if err := printJSON(os.Stdout, map[string]any{"digest": map[string]any{
		"value": rep.digest.String(), "recorded": rep.recorded, "checked": rep.recorded != "",
	}}); err != nil {
		fatal(err)
	}
	if err := printJSON(os.Stdout, rep.result()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hxbench: %v\n", err)
	os.Exit(1)
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a finished run.
type report struct {
	attempted, failed int
	problems          []string
	metrics           []metric
	digest            digest // the first unit's
	recorded          string // the digest recorded for the seed, if any
}

func (r *report) result() map[string]any {
	ms := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.Name] = m
	}
	return map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}
}

// setUp builds the workload's machines after a forced collection, on a
// fresh table cache, and returns the bench, the host CPU seconds it took
// and the Go runtime work it caused.
func setUp(p params, tr *tracer) (bench, float64, goStats, error) {
	coldTableCache()
	runtime.GC()
	g0 := readGoStats()
	c0 := cpuSeconds()
	b, err := p.build(tr)
	return b, cpuSeconds() - c0, readGoStats().sub(g0), err
}

// runUnit runs one unit and takes the CPU time it used.
func runUnit(b bench, tr *tracer) unitResult {
	c0 := cpuSeconds()
	u := b.unit(tr)
	u.cpu = cpuSeconds() - c0
	return u
}

// runUntraced measures the end-to-end metrics. setup_s is the median of
// the workload's cold set-ups; the run phase repeats the workload's unit,
// each after a forced collection, until the requested seconds have passed
// and msgs_per_cpu_s is the median of the units' rates; heap_mib is the
// larger live heap of the two phase ends. Both times are host CPU seconds
// (see cpuSeconds).
func runUntraced(w workload, p params, seed uint64, seconds float64) (*report, error) {
	var b bench
	var setups []float64
	for i := 0; i < w.setups; i++ {
		b = nil // the previous set-up's machines are garbage before the next starts
		nb, s, _, err := setUp(p, nil)
		if err != nil {
			return nil, err
		}
		b = nb
		setups = append(setups, s)
	}
	heapSetup := liveHeapMiB()

	runtime.GC()
	var units []unitResult
	var rates []float64
	start := time.Now()
	for len(units) == 0 || time.Since(start).Seconds() < seconds {
		if len(units) > 0 {
			units[len(units)-1].keep = nil // only the last unit's state stays live
			runtime.GC()                   // and every unit starts on the same heap
		}
		u := runUnit(b, nil)
		units = append(units, u)
		rates = append(rates, float64(u.msgs)/u.cpu)
		if u.failed > 0 {
			break
		}
	}
	run := time.Since(start).Seconds()
	heapRun := liveHeapMiB()
	runtime.KeepAlive(b)
	runtime.KeepAlive(units[len(units)-1].keep)

	rep := &report{digest: units[0].digest, recorded: recordedDigest(w.name, seed)}
	rep.attempted, rep.failed, rep.problems = gate(units, rep.recorded)
	fmt.Printf("%s: set-ups %v CPU s; %d units in %.2f s, unit rates %v msg per CPU s; digest %s; live heap %.1f MiB after set-up, %.1f MiB after run\n",
		w.name, rounded(setups), len(units), run, rounded(rates), units[0].digest, heapSetup, heapRun)
	rep.metrics = []metric{
		{"setup_s", exp.Summarize(setups).Median, "s"},
		{"msgs_per_cpu_s", exp.Summarize(rates).Median, "msg/cpu_s"},
		{"heap_mib", max(heapSetup, heapRun), "MiB"},
	}
	return rep, nil
}

// runTraced builds the machines once with set-up spans, then alternates
// untraced and traced units until the requested seconds have passed. All
// units are the same simulated work, so per-unit counts repeat exactly and
// the alternation makes the tracing overhead a like-for-like comparison.
// Go runtime figures for the run phase are taken over the untraced units,
// where the tracer's own allocations do not inflate them.
func runTraced(w workload, p params, seed uint64, seconds float64, spansDir string) (*report, error) {
	setupTr := newTracer()
	b, setupCPU, goSetup, err := setUp(p, setupTr)
	if err != nil {
		return nil, err
	}
	setupCache := exp.DefaultTableCache.Stats()
	heapSetup := liveHeapMiB()

	runtime.GC()
	runTr := newTracer()
	var plain, traced []unitResult
	var goRun goStats
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < seconds {
		if len(traced) > 0 {
			traced[len(traced)-1].keep = nil
			runtime.GC()
		}
		g0 := readGoStats()
		u := runUnit(b, nil)
		goRun.addDelta(readGoStats(), g0)
		u.keep = nil
		plain = append(plain, u)
		runtime.GC()
		traced = append(traced, runUnit(b, runTr))
		if u.failed > 0 || traced[len(traced)-1].failed > 0 {
			break
		}
	}
	heapRun := liveHeapMiB()
	runtime.KeepAlive(b)

	rep := &report{digest: plain[0].digest, recorded: recordedDigest(w.name, seed)}
	rep.attempted, rep.failed, rep.problems = gate(append(append([]unitResult(nil), plain...), traced...), rep.recorded)
	ls := layers(layerInputs{
		setupTr: setupTr, runTr: runTr, traced: traced, plain: plain,
		setupCache: setupCache, goSetup: goSetup, goRun: goRun,
		heapSetup: heapSetup, heapRun: heapRun,
	})
	fmt.Printf("%s: traced set-up %.2f CPU s; %d untraced + %d traced units; digest %s\n",
		w.name, setupCPU, len(plain), len(traced), traced[0].digest)
	all := map[string]metric{}
	for _, m := range ls {
		all[m.Name] = m
		if !m.workloadSpecific() {
			rep.metrics = append(rep.metrics, m)
		}
	}
	if err := printJSON(os.Stdout, map[string]any{"layers": all}); err != nil {
		return nil, err
	}
	if spansDir != "" {
		path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
		if err := writeSpans(path, setupTr, runTr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// writeSpans writes every recorded span, set-up first, as JSON lines.
func writeSpans(path string, trs ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, tr := range trs {
		phase := [...]string{"setup", "run"}[i]
		for _, s := range tr.spans {
			if err := enc.Encode(struct {
				Phase string `json:"phase"`
				span
			}{phase, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}

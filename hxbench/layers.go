package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/hpcsim/t2hx/internal/exp"
)

// layerInputs is everything a traced run measured.
type layerInputs struct {
	setupTr, runTr     *tracer
	traced, plain      []unitResult
	setupCache         exp.CacheStats
	goSetup, goRun     goStats
	heapSetup, heapRun float64
}

// workloadSpecificTimes are per-layer times whose layer runs in only some
// workloads, so they read exactly 0 on every run of the others. They are
// printed with the layer breakdown but kept out of the result line, whose
// metrics every workload must report with a measured value.
var workloadSpecificTimes = map[string]bool{
	"route.rebuild_s": true, "faults.sweep_s": true, "exp.cell_s.p50": true, "exp.cell_s.max": true,
	"mpi.progress_s": true, "telemetry.sink_s": true, "telemetry.finish_s": true,
}

func (m metric) workloadSpecific() bool { return workloadSpecificTimes[m.Name] }

// layers computes the per-layer metrics. Set-up figures cover the one
// traced set-up; run figures are per unit, averaged over the traced units
// (counts are identical in every unit, so their averages are exact).
func layers(in layerInputs) []metric {
	n := float64(len(in.traced))
	var c counts
	var cache exp.CacheStats
	var sweeps, rejected int
	var steps stepStats
	var msgs uint64
	var util, tracedRates, plainRates []float64
	for _, u := range in.traced {
		c.merge(u.counts)
		cache.Hits += u.cache.Hits
		cache.Misses += u.cache.Misses
		cache.Evictions += u.cache.Evictions
		sweeps += u.sweeps
		rejected += u.rejectedSweeps
		steps.max(u.steps)
		msgs += u.msgs
		util = append(util, u.workerUtil)
		tracedRates = append(tracedRates, float64(u.msgs)/u.cpu)
	}
	var plainMsgs uint64
	for _, u := range in.plain {
		plainMsgs += u.msgs
		plainRates = append(plainRates, float64(u.msgs)/u.cpu)
	}
	np := float64(len(in.plain))
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	su, ru := in.setupTr.agg, in.runTr.agg
	perMsg := func(x float64) float64 {
		if msgs == 0 {
			return 0
		}
		return x / float64(msgs)
	}
	cells := exp.Summarize(in.runTr.durations(kCell))
	mib := func(b uint64) float64 { return float64(b) / (1 << 20) }
	tracedRate, plainRate := exp.Summarize(tracedRates).Median, exp.Summarize(plainRates).Median
	allocsPerMsg := 0.0
	if plainMsgs > 0 {
		allocsPerMsg = float64(in.goRun.allocObjects) / float64(plainMsgs)
	}
	return []metric{
		{"topo.build_s", sec(su[kTopo].total), "s"},
		{"route.build_s", sec(su[kRoute].total), "s"},
		{"route.builds", float64(su[kRoute].n), "count"},
		{"route.rebuild_s", sec(ru[kRebuild].total) / n, "s"},
		{"route.rebuilds", float64(ru[kRebuild].n) / n, "count"},
		{"faults.sweeps", float64(sweeps) / n, "count"},
		{"faults.rejected_sweeps", float64(rejected) / n, "count"},
		{"faults.sweep_s", sec(ru[kStepSweep].self) / n, "s"},
		{"exp.build_machine_s", sec(su[kBuildMachine].total), "s"},
		{"exp.setup.cache_hits", float64(in.setupCache.Hits), "count"},
		{"exp.setup.cache_misses", float64(in.setupCache.Misses), "count"},
		{"exp.setup.cache_evictions", float64(in.setupCache.Evictions), "count"},
		{"exp.run.cache_hits", float64(cache.Hits) / n, "count"},
		{"exp.run.cache_misses", float64(cache.Misses) / n, "count"},
		{"exp.run.cache_evictions", float64(cache.Evictions) / n, "count"},
		{"exp.cells", float64(ru[kCell].n) / n, "count"},
		{"exp.cell_s.p50", cells.Median, "s"},
		{"exp.cell_s.max", cells.Max, "s"},
		{"exp.worker_util", exp.Summarize(util).Median, "ratio"},
		{"sim.events", float64(c.events) / n, "count"},
		{"sim.events_per_msg", perMsg(float64(c.events)), "event/msg"},
		{"sim.dispatch_s", sec(ru[kStepDispatch].self) / n, "s"},
		{"sim.queue_max", float64(steps.queueMax), "count"},
		{"flow.recomputes", float64(c.recomputes) / n, "count"},
		{"flow.recomputes_per_msg", perMsg(float64(c.recomputes)), "count/msg"},
		{"flow.settle_s", sec(ru[kStepSettle].self) / n, "s"},
		{"flow.active_max", float64(steps.activeMax), "count"},
		{"fabric.sends", float64(c.messages) / n, "count"},
		{"fabric.send_s", sec(ru[kSend].self) / n, "s"},
		{"fabric.retries", float64(c.retries) / n, "count"},
		{"fabric.torn_down", float64(c.tornDown) / n, "count"},
		{"fabric.giveups", float64(c.giveUps) / n, "count"},
		{"fabric.redispatched", float64(c.redispatch) / n, "count"},
		{"mpi.jobs", float64(ru[kLaunch].n) / n, "count"},
		{"mpi.progress_s", sec(ru[kDeliver].self+ru[kLaunch].self) / n, "s"},
		{"telemetry.lines", float64(in.runTr.lines) / n, "count"},
		{"telemetry.sink_s", sec(ru[kSink].self) / n, "s"},
		{"telemetry.finish_s", sec(ru[kFinish].self) / n, "s"},
		{"go.setup.gc_cycles", float64(in.goSetup.gcCycles), "count"},
		{"go.setup.gc_cpu_s", in.goSetup.gcCPU, "s"},
		{"go.setup.alloc_mib", mib(in.goSetup.allocBytes), "MiB"},
		{"go.setup.live_heap_mib", in.heapSetup, "MiB"},
		{"go.run.gc_cycles", float64(in.goRun.gcCycles) / np, "count"},
		{"go.run.gc_cpu_s", in.goRun.gcCPU / np, "s"},
		{"go.run.alloc_mib", mib(in.goRun.allocBytes) / np, "MiB"},
		{"go.run.allocs_per_msg", allocsPerMsg, "count/msg"},
		{"go.run.live_heap_mib", in.heapRun, "MiB"},
		{"trace.msgs_per_cpu_s", tracedRate, "msg/cpu_s"},
		{"trace.untraced_msgs_per_cpu_s", plainRate, "msg/cpu_s"},
		{"trace.overhead_pct", 100 * (1 - tracedRate/plainRate), "%"},
	}
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigest returns the digest recorded for the workload at seed, or
// "" when none is: then only the invariants and the agreement of the run's
// units are checked. A "*" entry holds for every seed; endurance has one,
// because its seeds relabel an isomorphic simulation.
func recordedDigest(workload string, seed uint64) string {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic(fmt.Sprintf("hxbench: digests.json: %v", err))
	}
	if d, ok := all[workload][fmt.Sprint(seed)]; ok {
		return d
	}
	return all[workload]["*"]
}

// provenance is what produced a result: host, toolchain, source and every
// workload parameter.
func provenance(w workload, p params, seed uint64, seconds float64, trace int, rev string) map[string]any {
	return map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
		"setups": w.setups, "params": p, "fixed": w.fixed,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
		"cpu": cpuModel(), "revision": rev, "source_sha256": sourceDigest("."),
	}
}

// cpuModel reads the CPU model name where the platform exposes it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, skipping
// hidden directories (build output, VCS metadata): the source identity of
// a checkout that carries no revision.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

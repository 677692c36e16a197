package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcsim/t2hx/internal/fabric"
	"github.com/hpcsim/t2hx/internal/workloads"
)

// CellSeed derives the deterministic seed of sweep cell index from the
// sweep's base seed: one SplitMix64 step over a combination of both. The
// derivation depends only on (baseSeed, index) — never on submission or
// completion order — which is what makes -j 1 and -j N sweeps bit-identical.
func CellSeed(baseSeed uint64, index int) uint64 {
	z := baseSeed + (uint64(index)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Cell is one unit of sweep work: typically a (combo, workload, size)
// trial block. Run receives the cell's deterministic seed and must create
// every piece of simulator state it needs (engine, fabric, telemetry)
// itself — workers share nothing mutable, which is what makes the pool
// race-free. Frozen routing tables obtained through the TableCache are the
// only cross-worker sharing, and they are read-only.
type Cell struct {
	// Label names the cell in errors and in RunnerStats.LastLabel.
	Label string
	// Seed, when non-nil, overrides the derived CellSeed(baseSeed, index)
	// — used where an established output format fixes the per-cell seeds
	// (cmd/figures keeps its historical P.Seed+n cells at any -j).
	Seed *uint64
	// Run executes the cell.
	Run func(seed uint64) (any, error)
}

// CellResult pairs a cell's index with what its Run returned.
type CellResult struct {
	Index int
	Label string
	Value any
}

// RunnerStats is a point-in-time snapshot of a running (or finished)
// sweep, published on the runner's StatsInterval ticker. Values observe
// the live run, so the live metrics are approximate (a cell may finish
// between field reads); the Final snapshot is exact.
type RunnerStats struct {
	// Done and Total count completed and queued cells (Done includes
	// failed cells — the pool has finished with them either way).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Elapsed is the wall time since the pool started.
	Elapsed time.Duration `json:"elapsed_ns"`
	// CellsPerSec is the completion throughput over Elapsed.
	CellsPerSec float64 `json:"cells_per_sec"`
	// ETA extrapolates the remaining wall time from the current
	// throughput; 0 until the first cell completes.
	ETA time.Duration `json:"eta_ns"`
	// Utilization is the fraction of worker wall time spent inside cell
	// Run functions (1.0 = all workers busy since start).
	Utilization float64 `json:"utilization"`
	// LastLabel is the label of the most recently completed cell.
	LastLabel string `json:"last_label,omitempty"`
	// Cache, when the runner was given a TableCache, snapshots its
	// counters — the live hit rate of a running sweep.
	Cache *CacheStats `json:"cache,omitempty"`
	// Final marks the closing snapshot emitted after the pool drains.
	Final bool `json:"final,omitempty"`
}

// LineKind implements telemetry's Line so snapshots can stream into any
// telemetry sink as "progress" JSONL lines.
func (RunnerStats) LineKind() string { return "progress" }

// Runner executes a queue of cells across a worker pool.
//
// Determinism contract: cell results depend only on (BaseSeed, cell
// index). The pool affects wall-clock order, never values; results come
// back ordered by index regardless of completion order. The first cell
// error cancels the remaining queue (cells already running finish) and is
// returned; later errors are dropped.
type Runner struct {
	// Workers is the pool size; <= 0 uses runtime.GOMAXPROCS(0).
	Workers int
	// BaseSeed feeds CellSeed for cells without a Seed override.
	BaseSeed uint64
	// OnStats, when set together with StatsInterval, receives periodic
	// RunnerStats snapshots from a dedicated ticker goroutine while the
	// pool runs, plus one Final snapshot after it drains. Calls never
	// overlap.
	OnStats func(RunnerStats)
	// StatsInterval is the snapshot cadence; <= 0 disables the ticker
	// (a Final snapshot is still delivered when OnStats is set).
	StatsInterval time.Duration
	// Cache, when set, is snapshotted into each RunnerStats (live table
	// cache hit rate). Sweep drivers pass DefaultTableCache.
	Cache *TableCache
}

// WorkerCount resolves the effective pool size.
func (r Runner) WorkerCount() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runnerState is the pool's shared instrumentation: everything the stats
// ticker reads is atomic, so snapshots never contend with workers.
type runnerState struct {
	start     time.Time
	total     int
	workers   int
	done      atomic.Int64
	busyNanos atomic.Int64 // summed over completed Run calls

	mu        sync.Mutex
	lastLabel string
}

// snapshot assembles a RunnerStats from the live counters.
func (st *runnerState) snapshot(cache *TableCache, final bool) RunnerStats {
	elapsed := time.Since(st.start)
	done := int(st.done.Load())
	s := RunnerStats{
		Done: done, Total: st.total, Workers: st.workers,
		Elapsed: elapsed, Final: final,
	}
	if elapsed > 0 {
		s.CellsPerSec = float64(done) / elapsed.Seconds()
		s.Utilization = float64(st.busyNanos.Load()) / (float64(elapsed.Nanoseconds()) * float64(st.workers))
		if s.Utilization > 1 {
			s.Utilization = 1
		}
	}
	if done > 0 && done < st.total && s.CellsPerSec > 0 {
		s.ETA = time.Duration(float64(st.total-done) / s.CellsPerSec * float64(time.Second))
	}
	st.mu.Lock()
	s.LastLabel = st.lastLabel
	st.mu.Unlock()
	if cache != nil {
		cs := cache.Stats()
		s.Cache = &cs
	}
	return s
}

// startStats launches the snapshot ticker; the returned stop must be
// called after the pool drains (it emits the Final snapshot).
func (r Runner) startStats(st *runnerState) (stop func()) {
	if r.OnStats == nil {
		return func() {}
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	if r.StatsInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(r.StatsInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					r.OnStats(st.snapshot(r.Cache, false))
				case <-quit:
					return
				}
			}
		}()
	}
	return func() {
		close(quit)
		wg.Wait()
		r.OnStats(st.snapshot(r.Cache, true))
	}
}

// exec is the shared pool core of Run and RunAll. With stopOnFirstError
// the first failure cancels the remaining queue and is returned alone
// (successful results still land in out); without it every cell runs and
// the labelled errors are joined.
func (r Runner) exec(cells []Cell, stopOnFirstError bool) ([]CellResult, error) {
	n := len(cells)
	out := make([]CellResult, n)
	if n == 0 {
		if r.OnStats != nil {
			st := &runnerState{start: time.Now(), total: 0, workers: r.WorkerCount()}
			r.OnStats(st.snapshot(r.Cache, true))
		}
		return out, nil
	}
	workers := r.WorkerCount()
	if workers > n {
		workers = n
	}

	st := &runnerState{start: time.Now(), total: n, workers: workers}
	stopStats := r.startStats(st)
	defer stopStats()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, n)
	queue := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				c := cells[i]
				seed := CellSeed(r.BaseSeed, i)
				if c.Seed != nil {
					seed = *c.Seed
				}
				cellStart := time.Now()
				v, err := c.Run(seed)
				st.busyNanos.Add(time.Since(cellStart).Nanoseconds())
				st.done.Add(1)
				st.mu.Lock()
				st.lastLabel = c.Label
				st.mu.Unlock()
				mu.Lock()
				if err != nil && stopOnFirstError {
					if firstErr == nil {
						firstErr = err
						cancel() // stop feeding the queue
					}
				} else {
					out[i] = CellResult{Index: i, Label: c.Label, Value: v}
					if err != nil {
						if c.Label != "" {
							err = fmt.Errorf("%s: %w", c.Label, err)
						}
						errs[i] = err
					}
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case queue <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(queue)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, errors.Join(errs...)
}

// Run executes all cells and returns their results ordered by cell index.
func (r Runner) Run(cells []Cell) ([]CellResult, error) {
	return r.exec(cells, true)
}

// RunAll executes all cells like Run, but never cancels the queue: every
// cell runs to completion, per-cell errors are joined (labelled with the
// failing cell) into the returned error, and the results of cells that
// succeeded are kept. Batch drivers whose individual cells may legitimately
// fail (fault scenarios, degraded sweeps) use this so one bad spec cannot
// discard a night of completed work.
func (r Runner) RunAll(cells []Cell) ([]CellResult, error) {
	return r.exec(cells, false)
}

// ForEach runs fn for indices [0, n) over the runner's pool and returns
// the results in index order — the typed convenience the figure pipelines
// use. fn receives the index's deterministic seed (see CellSeed).
func ForEach[T any](r Runner, n int, label func(i int) string, fn func(i int, seed uint64) (T, error)) ([]T, error) {
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		var lbl string
		if label != nil {
			lbl = label(i)
		}
		cells[i] = Cell{Label: lbl, Run: func(seed uint64) (any, error) {
			return fn(i, seed)
		}}
	}
	res, err := r.Run(cells)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i, cr := range res {
		if cr.Value != nil {
			out[i] = cr.Value.(T)
		}
	}
	return out, nil
}

// SweepCell is one cell of an experiment sweep: a machine configuration
// plus a workload trial block. The machine is built inside the worker so
// simulator state stays private; routing tables are shared read-only via
// the table cache.
type SweepCell struct {
	Label  string
	Combo  Combo
	Cfg    MachineConfig
	Nodes  int
	Trials int
	Jitter float64
	Build  func(n int) (*workloads.Instance, error)
	// Attach is forwarded to TrialSpec.Attach (telemetry hookup).
	Attach func(trial int, f fabric.Messenger)
	// Seed, when non-nil, pins the cell's seed (see Cell.Seed).
	Seed *uint64
}

// SweepResult is one cell's outcome: the per-trial metric values and their
// whisker statistics.
type SweepResult struct {
	Index int
	Label string
	Seed  uint64
	Vals  []float64
	Stats Stats
}

// RunSweep executes every cell over the runner's pool. Each cell's trials
// run under its deterministic seed, so the per-cell metric vectors are
// bit-identical for any worker count (test-enforced by
// TestSweepDeterministicAcrossWorkers).
func RunSweep(r Runner, cells []SweepCell) ([]SweepResult, error) {
	rcells := make([]Cell, len(cells))
	for i := range cells {
		i := i
		c := cells[i]
		rcells[i] = Cell{Label: c.Label, Seed: c.Seed, Run: func(seed uint64) (any, error) {
			m, err := BuildMachine(c.Combo, c.Cfg)
			if err != nil {
				return nil, err
			}
			vals, _, err := RunTrials(TrialSpec{
				Machine: m, Nodes: c.Nodes, Trials: c.Trials,
				Seed: seed, Jitter: c.Jitter, Build: c.Build, Attach: c.Attach,
			})
			if err != nil {
				return nil, err
			}
			return SweepResult{Index: i, Label: c.Label, Seed: seed, Vals: vals, Stats: Summarize(vals)}, nil
		}}
	}
	res, err := r.Run(rcells)
	if err != nil {
		return nil, err
	}
	out := make([]SweepResult, len(res))
	for i, cr := range res {
		out[i] = cr.Value.(SweepResult)
	}
	return out, nil
}

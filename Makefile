# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

DATE := $(shell date +%F)

.PHONY: all build test race vet fmt hxbench-test check bench bench-check bench-sweep bench-sweep-check bench-degraded bench-degraded-check bench-scale bench-scale-check bench-events bench-events-check

# BASELINE is the committed bench document bench-check compares against;
# override with `make bench-check BASELINE=BENCH_....json`. The sweep-
# engine and degraded-sweep baselines live in their own BENCH_sweep_* /
# BENCH_degraded_* documents (more iterations, different cadence) and must
# not be picked up here.
BASELINE := $(lastword $(sort $(filter-out BENCH_sweep_% BENCH_degraded_% BENCH_scale_% BENCH_events_%,$(wildcard BENCH_*.json))))
SWEEPBASELINE := $(lastword $(sort $(wildcard BENCH_sweep_*.json)))
DEGBASELINE := $(lastword $(sort $(wildcard BENCH_degraded_*.json)))
SCALEBASELINE := $(lastword $(sort $(wildcard BENCH_scale_*.json)))
EVENTSBASELINE := $(lastword $(sort $(wildcard BENCH_events_*.json)))

# The sweep-engine benchmarks (parallel runner + table cache).
SWEEPBENCH := BenchmarkSweepParallel|BenchmarkTablesBuild

# The degraded-variant table-production benchmark (fault-tolerant engines
# over failure-chain prefixes, cold vs cached).
DEGBENCH := BenchmarkDegradedTables

# The flow-core scale benchmarks: lifecycle-churn allocation cost over the
# arena/SoA flow table, and the windowed endurance loop end to end.
SCALEBENCH := BenchmarkFlowChurn|BenchmarkScaleRun

# The event-core benchmarks: steady-state arena churn (the 0 allocs/op
# contract) and the instrumented-vs-detached endurance loop.
EVENTCHURNBENCH := BenchmarkEventChurn
EVENTSCALEBENCH := BenchmarkScaleInstrumented

all: check

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# hxbench is a nested module: the root ./... patterns do not reach it.
hxbench-test:
	cd hxbench && go vet ./... && go test ./...

race:
	go test -race ./internal/...

check: fmt vet build test hxbench-test race
	go run ./cmd/topocheck -degrade -1 -seed 42
	go run ./cmd/topocheck -planes ft:ftree,hyperx:parx

# bench regenerates every figure/ablation benchmark once and records the
# machine-readable baseline as BENCH_<date>.json (committed per PR so
# hot-path regressions show up as diffs).
bench:
	go test -run xxx -bench . -benchtime 1x . | go run ./cmd/benchjson -out BENCH_$(DATE).json
	@echo "baseline written to BENCH_$(DATE).json"

# bench-check reruns the benchmarks once and compares ns/op plus the
# "/s" throughput metrics against the newest committed baseline, warning
# (not failing) on >10% regressions.
bench-check:
	go test -run xxx -bench . -benchtime 1x . | go run ./cmd/benchjson -baseline $(BASELINE) > /dev/null

# bench-sweep records the sweep-engine baseline: parallel-runner cells/s
# at -j1 vs -j8 and table builds/s cold vs cached, with enough iterations
# for stable throughput numbers. Committed as BENCH_sweep_<date>.json.
# NOTE: the j=8/j=1 speedup scales with host cores; on a 1-CPU runner the
# two are equal, so compare speedups only across same-shaped machines.
bench-sweep:
	go test -run xxx -bench '$(SWEEPBENCH)' -benchtime 5x . \
		| go run ./cmd/benchjson -filter 'SweepParallel|TablesBuild' -out BENCH_sweep_$(DATE).json
	@echo "sweep baseline written to BENCH_sweep_$(DATE).json"

# bench-sweep-check reruns the sweep-engine benchmarks and compares their
# "/s" throughput metrics against the newest committed sweep baseline
# (warn-only, like bench-check).
bench-sweep-check:
	go test -run xxx -bench '$(SWEEPBENCH)' -benchtime 5x . \
		| go run ./cmd/benchjson -filter 'SweepParallel|TablesBuild' -baseline $(SWEEPBASELINE) > /dev/null

# bench-degraded records the degraded-sweep baseline: table builds/s for
# the fault-tolerant engines walking failure-chain prefixes, cold vs
# through the TableCache. Committed as BENCH_degraded_<date>.json.
bench-degraded:
	go test -run xxx -bench '$(DEGBENCH)' -benchtime 5x . \
		| go run ./cmd/benchjson -filter 'DegradedTables' -out BENCH_degraded_$(DATE).json
	@echo "degraded baseline written to BENCH_degraded_$(DATE).json"

# bench-degraded-check reruns the degraded-variant benchmark and compares
# its builds/s metrics against the newest committed degraded baseline
# (warn-only, like bench-check).
bench-degraded-check:
	go test -run xxx -bench '$(DEGBENCH)' -benchtime 5x . \
		| go run ./cmd/benchjson -filter 'DegradedTables' -baseline $(DEGBASELINE) > /dev/null

# bench-scale records the flow-core scale baseline: allocs/op + B/op of
# flow lifecycle churn at 1k/10k/100k resident flows, and msgs/s of the
# windowed endurance loop, with heap/GC/peak-RSS metrics folded in via
# internal/prof. Committed as BENCH_scale_<date>.json.
bench-scale:
	go test -run xxx -bench '$(SCALEBENCH)' -benchtime 50x -benchmem . \
		| go run ./cmd/benchjson -filter 'FlowChurn|ScaleRun' -out BENCH_scale_$(DATE).json
	@echo "scale baseline written to BENCH_scale_$(DATE).json"

# bench-scale-check reruns the flow-core scale benchmarks and compares
# flows/s, msgs/s, B/op and peak-rss-B against the newest committed scale
# baseline (warn-only, like bench-check).
bench-scale-check:
	go test -run xxx -bench '$(SCALEBENCH)' -benchtime 50x -benchmem . \
		| go run ./cmd/benchjson -filter 'FlowChurn|ScaleRun' -baseline $(SCALEBASELINE) > /dev/null

# bench-events records the event-core baseline: steady-state event churn
# (the allocs/op column MUST read 0 — the generation-tagged arena contract)
# plus the windowed endurance loop with the full observability stack
# attached vs detached (the instrumented msgs/s must stay within 15% of
# detached, DESIGN.md §13). The two benches need different iteration
# counts (one is a microbench, one a full run), so they run as two
# invocations feeding one benchjson document. Committed as
# BENCH_events_<date>.json.
bench-events:
	( go test -run xxx -bench '$(EVENTCHURNBENCH)' -benchtime 200000x -benchmem . ; \
	  go test -run xxx -bench '$(EVENTSCALEBENCH)' -benchtime 10x -benchmem . ) \
		| go run ./cmd/benchjson -filter 'EventChurn|ScaleInstrumented' -out BENCH_events_$(DATE).json
	@echo "event-core baseline written to BENCH_events_$(DATE).json"

# bench-events-check reruns the event-core benchmarks and compares ns/op,
# B/op, allocs/op and the msgs/s / events/s throughputs against the newest
# committed events baseline (warn-only, like bench-check).
bench-events-check:
	( go test -run xxx -bench '$(EVENTCHURNBENCH)' -benchtime 200000x -benchmem . ; \
	  go test -run xxx -bench '$(EVENTSCALEBENCH)' -benchtime 10x -benchmem . ) \
		| go run ./cmd/benchjson -filter 'EventChurn|ScaleInstrumented' -baseline $(EVENTSBASELINE) > /dev/null

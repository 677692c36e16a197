# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

.PHONY: all build test race vet fmt hxbench-test fuzz bench examples check

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
	go test -race ./internal/... ./cmd/...

# fuzz explores solver instances past the property suite's seeds, then
# engine operation sequences (FuzzEngine) against a sorted-slice
# reference, then mutated routing tables against the pair-walk Validate,
# then the lane pass's layering against the one that searches every
# dependency, then FTree on degraded XGFTs against its per-terminal
# reference. go test alone runs only the committed corpora
# (internal/{flow,route,sim}/testdata/fuzz); a failing input found here is
# written there. Each new input is minimized for at most 1 s instead of the
# 60 s default, so the 10 s of each target go to exploring.
fuzz:
	go test -run '^$$' -fuzz '^FuzzSolverEquivalence$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/flow
	go test -run '^$$' -fuzz '^FuzzEngine$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
	go test -run '^$$' -fuzz '^FuzzValidateCertificate$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/route
	go test -run '^$$' -fuzz '^FuzzLanePass$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/route
	go test -run '^$$' -fuzz '^FuzzFTree$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/route

# bench runs every figure, ablation and extension benchmark once as an
# experiment driver and fails if any of them fails. No baseline is kept:
# host speed is measured by hxbench (hxbench/README.md).
bench:
	go test -run '^$$' -bench . -benchtime 1x ./...

# examples runs every example once; any that exits non-zero fails the
# target (dual-plane exits 1 if its failover loses a message).
examples:
	go run ./examples/quickstart
	go run ./examples/routing-comparison
	go run ./examples/parx-demand
	go run ./examples/adaptive-routing
	go run ./examples/dual-plane -small

# The topocheck routing gate runs inside test (cmd/topocheck TestRoutingGate).
check: fmt vet build test hxbench-test race fuzz bench examples

# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

.PHONY: all build test race vet fmt hxbench-test bench check

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

# bench runs every figure, ablation and extension benchmark once as an
# experiment driver and fails if any of them fails. No baseline is kept:
# host speed is measured by hxbench (hxbench/README.md).
bench:
	go test -run '^$$' -bench . -benchtime 1x ./...

check: fmt vet build test hxbench-test race bench
	go run ./cmd/topocheck -degrade -1 -seed 42
	go run ./cmd/topocheck -planes ft:ftree,hyperx:parx

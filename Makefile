GO ?= go

.PHONY: all check fmt vet build test race bench

all: check

# The full gate: formatting, vet, build, tests, and the race detector over
# the packages with cross-goroutine code (the parallel figure runner,
# window workers, the live transport). CI runs the same targets.
check: fmt vet build test race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Besides go vet, one boundary: a store knows its machine as a
# transport.Host, so no application package names the simulated NIC's
# server type — except Pilaf, whose PUT schedules on its engine.
vet:
	$(GO) vet ./...
	@! grep -n 'rdma\.Server' $$(ls internal/kv/*.go internal/abd/*.go internal/tx/*.go | grep -v -e _test.go -e /pilaf.go)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Real parallelism at 1, 2 and 4 scheduler threads. alloc, memory and
# prism are here because free lists carve slabs (Space.Register) under the
# guard on concurrent sockets; tx and abd because their stores are served
# over a socket too. internal/bench runs once: under the race
# detector it takes minutes per -cpu value (three would overrun go test's
# 10-minute default), and its determinism sweeps already drive their own
# worker pools. It runs as three processes, because the race runtime's
# memory grows across the tests of one process (3.3-4.3 GB for each part,
# over 6.5 GB in one process), and each prints its peak_rss_mb (TestMain; go
# test shows it when run in the package directory). workload and
# prismtrace ride along after it.
race:
	$(GO) test -race -cpu 1,2,4 ./internal/sim ./internal/fabric ./internal/rdma \
		./internal/transport ./internal/kv ./internal/alloc ./internal/memory ./internal/prism \
		./internal/tx ./internal/abd
	cd internal/bench && $(GO) test -race -run '^TestAffinityGroupingMatchesUngrouped$$'
	cd internal/bench && $(GO) test -race -run '^TestDomainParallelMatchesSerial$$'
	cd internal/bench && $(GO) test -race -skip '^(TestAffinityGroupingMatchesUngrouped|TestDomainParallelMatchesSerial)$$'
	$(GO) test -race ./internal/workload ./cmd/prismtrace

# The one command that regenerates a number: the repository's benchmark
# (BENCHMARK.json; flags and metrics in benchmark/README.md).
bench:
	bash benchmark/run.sh

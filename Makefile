GO ?= go

.PHONY: all check fmt vet build test race bench

all: check

# The full gate: formatting, vet, build, tests, and the race detector over
# the packages with cross-goroutine code (the parallel figure runner, the
# live transport). CI runs the same targets.
check: fmt vet build test race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Besides go vet, two boundaries. A store knows its machine as a
# transport.Host, so no application package names the simulated NIC's
# server type; Pilaf's torn PUT is a host operation too (StageWrites). And a
# protocol is written once, over transport.Issuer and transport.Fanout: in
# internal/abd and internal/tx only the simulated shell, sim.go, names a
# process, a simulated connection or the simulator's fan-out.
vet:
	$(GO) vet ./...
	@! grep -n 'rdma\.Server' $$(ls internal/kv/*.go internal/abd/*.go internal/tx/*.go | grep -v _test.go)
	@! grep -nE 'sim\.Proc|rdma\.(Conn|Fanout)' $$(ls internal/abd/*.go internal/tx/*.go | grep -v -e _test.go -e /sim.go)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Real parallelism at 1, 2 and 4 scheduler threads. alloc, memory and
# prism are here because free lists carve slabs (Space.Register) under the
# guard on concurrent sockets; tx and abd because their stores are served
# over a socket too. internal/bench runs once: its determinism tests
# already drive their own point pools. It runs as two processes, because the
# race runtime's memory grows across the tests of one process: all of
# internal/bench in one peaked at 6,853 MB on the 8 GB host, over the
# 6,000 MB it may use there, so the golden-figure tests (every figure
# rendered serially and on a pool, ≈3,000 MB) run apart from the rest
# (≈4,700 MB). Each prints its peak_rss_mb (TestMain; go test shows it when
# run in the package directory). workload, wire and the commands ride
# along after it.
race:
	$(GO) test -race -cpu 1,2,4 ./internal/sim ./internal/fabric ./internal/rdma \
		./internal/transport ./internal/kv ./internal/alloc ./internal/memory ./internal/prism \
		./internal/tx ./internal/abd
	cd internal/bench && $(GO) test -race -run '^(TestAffinityGroupingMatchesUngrouped|TestDomainParallelMatchesSerial|TestFiguresGolden)$$'
	cd internal/bench && $(GO) test -race -skip '^(TestAffinityGroupingMatchesUngrouped|TestDomainParallelMatchesSerial|TestFiguresGolden)$$'
	$(GO) test -race ./internal/workload ./internal/wire ./cmd/prismtrace ./cmd/prismkv ./cmd/prismload

# The one command that regenerates a number: the repository's benchmark
# (BENCHMARK.json; flags and metrics in benchmark/README.md).
bench:
	bash benchmark/run.sh

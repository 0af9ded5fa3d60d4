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

# Besides go vet, two boundaries. The applications (internal/kv, abd, tx)
# import neither the simulator nor its NIC model: a store knows its machine
# as a transport.Host and a protocol is written once over
# transport.Issuer and transport.Fanout, so the same types run on the
# simulator and on a socket; the check reads each package's imports. And
# §3.4's CONDITIONAL rule is written once, in prism.Executor.Step, which
# both servers call: no other non-test Go under internal/ or cmd/ reads
# the flag.
vet:
	$(GO) vet ./...
	@! $(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./internal/kv ./internal/abd ./internal/tx | grep -E 'prism/internal/(rdma|sim)( |$$)'
	@! grep -rn --include='*.go' --exclude='*_test.go' 'Has(wire.FlagConditional)' internal cmd | grep -v '^internal/prism/'

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
# run in the package directory). internal/transport's Issuer contract
# drives two goroutines through one socket's read token at every thread
# count. workload, wire and the commands ride along after internal/bench:
# prismd serves every store over a unix socket.
race:
	$(GO) test -race -cpu 1,2,4 ./internal/sim ./internal/fabric ./internal/rdma \
		./internal/transport ./internal/kv ./internal/alloc ./internal/memory ./internal/prism \
		./internal/tx ./internal/abd
	cd internal/bench && $(GO) test -race -run '^TestFiguresGolden$$'
	cd internal/bench && $(GO) test -race -skip '^TestFiguresGolden$$'
	$(GO) test -race ./internal/workload ./internal/wire ./cmd/prismtrace ./cmd/prismkv ./cmd/prismload \
		./cmd/prismd

# The one command that regenerates a number: the repository's benchmark
# (BENCHMARK.json; flags and metrics in benchmark/README.md).
bench:
	bash benchmark/run.sh

package main

import (
	"runtime"
	"time"

	"prism/internal/bench"
)

// nKeys is the keyspace every live workload preloads and draws from; the
// table has exactly this many slots (collisionless hash, as in the
// paper's evaluation), so a SCAN window over it is always full.
const nKeys = 4096

// scanBudget is live_scan_32k's byte budget per SCAN window.
const scanBudget = 32 << 10

// trainLen is live_get_batch16's GETs per doorbell.
const trainLen = 16

type opKind int

const (
	kindGet opKind = iota
	kindGetBatch
	kindPutMix
	kindScan
)

// liveSpec is one live workload: who issues what against the in-process
// server. Every client is a closed loop on a socket of its own.
type liveSpec struct {
	name      string
	kind      opKind
	clients   int   // one socket each; capped at the CPU count
	valueSize int   // bytes per value
	sliceOps  int64 // logical operations per slice, all clients together
}

// callOps is the logical operations one call completes: each key of a
// train counts.
func (s liveSpec) callOps() int64 {
	if s.kind == kindGetBatch {
		return trainLen
	}
	return 1
}

// liveSpecs are the four live workloads. Slice sizes are fixed operation
// counts — so counters compare between commits — chosen so that a slice
// takes about a quarter of a second at the commit that added the
// benchmark: short enough that some slices of every run fall between the
// host's interference bursts, long enough for thousands of latency
// samples.
var liveSpecs = []liveSpec{
	// One request in flight: every per-request fixed cost is serial on
	// the critical path and coalescing can do nothing.
	{name: "live_get_rtt", kind: kindGet, clients: 1, valueSize: 128, sliceOps: 20_000},
	// Syscalls and wakeups amortise 16x, so per-frame CPU and guard
	// contention between two server loops do the work.
	{name: "live_get_batch16", kind: kindGetBatch, clients: 2, valueSize: 128, sliceOps: 160_000},
	// Writes beside reads: ALLOCATE-WRITE-CAS chains, free lists,
	// reclamation RPCs, CAS retries between two writers.
	{name: "live_put_mix", kind: kindPutMix, clients: 2, valueSize: 512, sliceOps: 16_000},
	// The large-message point: per-byte work dominates per-request
	// overhead.
	{name: "live_scan_32k", kind: kindScan, clients: 2, valueSize: 128, sliceOps: 6_400},
}

// warmSlices is how many slices a live run discards before measuring.
const warmSlices = 8

const simName = "sim_figures"

// simFigure is one figure function of the sim_figures set.
type simFigure struct {
	name string
	fn   func(bench.Config) *bench.Figure
}

var simFigures = []simFigure{
	{"fig1", bench.Fig1}, {"fig2", bench.Fig2}, {"fig3", bench.Fig3}, {"fig4", bench.Fig4},
	{"fig6", bench.Fig6}, {"fig9", bench.Fig9}, {"figchase", bench.FigChase}, {"rpcvsrdma", bench.RPCvsRDMA},
}

// simConfig is the figure configuration sim_figures runs: the paper's
// shapes at a keyspace and window that regenerate in a few seconds. The
// seed is fixed because the rendered CSV is compared with a stored hash;
// the run seed does not reach the simulator.
func simConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Keys = nKeys
	cfg.ValueSize = 512
	cfg.ClientCounts = []int{1, 2, 4, 8, 16, 32, 64}
	cfg.Warmup = 100 * time.Microsecond
	cfg.Measure = time.Millisecond
	cfg.Seed = 42
	cfg.Parallel = 1
	cfg.Intra = 1
	return cfg
}

// workloadNames lists every workload in reporting order.
func workloadNames() []string {
	var names []string
	for _, s := range liveSpecs {
		names = append(names, s.name)
	}
	return append(names, simName)
}

// clientCount caps a workload's clients at the CPU count: a client
// goroutine that has no CPU of its own measures the scheduler, not the
// datapath.
func clientCount(want int) int {
	if n := runtime.NumCPU(); want > n {
		return n
	}
	return want
}

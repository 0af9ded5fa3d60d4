package bench

import (
	"bytes"
	"testing"
	"time"

	"prism/internal/model"
)

// scaleTestConfig is a laptop-fast shrink of the fig-scale setup.
func scaleTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Keys = 2048
	cfg.ValueSize = 64
	cfg.ScaleMachines = 16
	cfg.Warmup = 20 * time.Microsecond
	cfg.Measure = 200 * time.Microsecond
	cfg.MaxOps = 4000
	return cfg
}

// TestScaleCliffMovesWithCapacity: the connection cliff is the QP cache
// capacity. At a client count that fits a large cache but thrashes a small
// one, the small-cache run misses on the data path and loses throughput;
// grow the cache past the connection count and the misses — and the
// slowdown — vanish. That is the cliff moving with capacity.
func TestScaleCliffMovesWithCapacity(t *testing.T) {
	const clients = 96
	// fig-scale's PRISM-KV (projected hardware) series, its hardware-class
	// cache holding entries connections.
	withCache := func(entries int) system {
		p := scaleFabric()
		p.HWQPCacheEntries = entries
		return system{"PRISM-KV", prismKV(model.ProjectedHardwarePRISM, p, kvTune{singleQP: true})}
	}
	cfg := scaleTestConfig()
	// Past the cliff an op waits out two serialized fetch waves (~2 x 96 x
	// PCIeRTT); the window must span several waves to measure any of them.
	cfg.Measure = time.Millisecond
	ptSmall, telSmall := scalePoint(withCache(24), cfg, clients)
	ptBig, telBig := scalePoint(withCache(256), cfg, clients)

	if telBig.ConnCacheMisses != 0 || telBig.ConnCacheHits == 0 {
		t.Fatalf("cache above connection count: hits=%d misses=%d, want hits only",
			telBig.ConnCacheHits, telBig.ConnCacheMisses)
	}
	if telSmall.ConnCacheMisses == 0 || telSmall.ConnCacheEvictions == 0 {
		t.Fatalf("thrashing cache: misses=%d evictions=%d, want both > 0",
			telSmall.ConnCacheMisses, telSmall.ConnCacheEvictions)
	}
	// A cliff, not a slope: past it, throughput at least halves.
	if ptSmall.Throughput >= ptBig.Throughput/2 {
		t.Fatalf("past-cliff throughput %.0f not below half of within-capacity %.0f",
			ptSmall.Throughput, ptBig.Throughput)
	}
	if ptSmall.Mean <= ptBig.Mean {
		t.Fatalf("past-cliff mean latency %v not above within-capacity %v",
			ptSmall.Mean, ptBig.Mean)
	}
}

// TestFigScaleDeterministic: the rendered fig-scale CSV is byte-identical
// with and without point-level parallelism (TestFiguresGolden pins the
// same bytes to the commits before).
func TestFigScaleDeterministic(t *testing.T) {
	base := scaleTestConfig()
	base.ScaleClients = []int{4, 48}
	render := func(cfg Config) string {
		var buf bytes.Buffer
		FigScale(cfg).FprintCSV(&buf)
		return buf.String()
	}
	want := render(base)
	cfg := base
	cfg.Parallel = 4
	if got := render(cfg); got != want {
		t.Errorf("fig-scale CSV differs under parallel=4:\n--- serial:\n%s--- parallel=4:\n%s", want, got)
	}
}

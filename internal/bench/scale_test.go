package bench

import (
	"bytes"
	"testing"
	"time"
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
	sys := scaleSystems()[1] // PRISM-KV (projected hardware): hardware-class cache
	const clients = 96

	small := scaleTestConfig()
	// Past the cliff an op waits out two serialized fetch waves (~2 x 96 x
	// PCIeRTT); the window must span several waves to measure any of them.
	small.Measure = time.Millisecond
	small.QPCacheEntries = 24
	ptSmall, telSmall := scalePoint(sys, small, clients)

	big := scaleTestConfig()
	big.Measure = time.Millisecond
	big.QPCacheEntries = 256
	ptBig, telBig := scalePoint(sys, big, clients)

	if telBig.QPCacheMisses != 0 || telBig.QPCacheHits == 0 {
		t.Fatalf("cache above connection count: hits=%d misses=%d, want hits only",
			telBig.QPCacheHits, telBig.QPCacheMisses)
	}
	if telSmall.QPCacheMisses == 0 || telSmall.QPCacheEvictions == 0 {
		t.Fatalf("thrashing cache: misses=%d evictions=%d, want both > 0",
			telSmall.QPCacheMisses, telSmall.QPCacheEvictions)
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
// across point-level parallelism, domain-level parallelism and affinity
// grouping (TestFiguresGolden pins the same bytes to the dense-sweep
// scheduler they were recorded under).
func TestFigScaleDeterministic(t *testing.T) {
	base := scaleTestConfig()
	base.ScaleClients = []int{4, 48}
	render := func(cfg Config) string {
		var buf bytes.Buffer
		FigScale(cfg).FprintCSV(&buf)
		return buf.String()
	}
	want := render(base)

	variants := map[string]func(*Config){
		"parallel=4": func(c *Config) { c.Parallel = 4 },
		"intra=4":    func(c *Config) { c.Intra = 4 },
		"affinity=4": func(c *Config) { c.ClientsPerDomain = 4 },
	}
	for name, mut := range variants {
		cfg := base
		mut(&cfg)
		if got := render(cfg); got != want {
			t.Errorf("fig-scale CSV differs under %s:\n--- serial:\n%s--- %s:\n%s",
				name, want, name, got)
		}
	}
}

// TestScaleSparseBarrierSavings: at the mostly-idle low end of the sweep
// (few clients spread over a fixed fleet of machines), at least 30% of
// the barrier crossings have nothing to merge and skip their hook sweep.
func TestScaleSparseBarrierSavings(t *testing.T) {
	sys := scaleSystems()[1]
	cfg := scaleTestConfig()
	cfg.ScaleMachines = 64 // 4 clients over 64 machines: 60+ idle domains

	_, tel := scalePoint(sys, cfg, 4)
	crossings := tel.Barriers + tel.BarrierSkips
	if tel.Barriers == 0 {
		t.Fatal("no hook sweep ran")
	}
	if share := float64(tel.BarrierSkips) / float64(crossings); share < 0.30 {
		t.Fatalf("%d of %d crossings elided (%.2f): idle fleet should elide >= 30%%",
			tel.BarrierSkips, crossings, share)
	}
	if tel.IdleSkips == 0 {
		t.Fatal("active-set scan skipped no idle domains")
	}
}

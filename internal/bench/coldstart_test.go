package bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkColdTemplate times one cold build of each system's template —
// construct, bulk load, capture — by keyspace: EXPERIMENTS.md, "Cold
// start by keyspace". Run it with -benchtime 1x; outside a sweep every
// call builds anew.
func BenchmarkColdTemplate(b *testing.B) {
	for _, sys := range []struct {
		name  string
		build func(Config)
	}{
		{"prismkv", func(c Config) { kvTemplate(c) }},
		{"pilaf", func(c Config) { pilafTemplate(c) }},
		{"prismrs", func(c Config) { rsTemplate(c) }},
		{"abdlock", func(c Config) { lockTemplate(c) }},
		{"prismtx", func(c Config) { txTemplate(c) }},
		{"farm", func(c Config) { farmTemplate(c) }},
	} {
		for _, keys := range []int64{4 << 10, 16 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/keys=%d", sys.name, keys), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Keys = keys
				for i := 0; i < b.N; i++ {
					sys.build(cfg)
				}
			})
		}
	}
}

// BenchmarkFigureSetSetup times the set-up pass of sim_figures, the
// repository benchmark's simulator workload: its eight figures at one
// client count and a 1 µs window, so the time is mostly template builds
// and the first point of each cluster. Every iteration uses a keyspace no earlier one used, so
// each image is built cold once and then shared by every figure of the
// set that needs it (Fig 3 and Fig 4 share PRISM-KV and Pilaf). A
// collection first frees what an earlier -count run left.
func BenchmarkFigureSetSetup(b *testing.B) {
	figures := []func(Config) *Figure{Fig1, Fig2, Fig3, Fig4, Fig6, Fig9, FigChase, RPCvsRDMA}
	cfg := DefaultConfig()
	cfg.ValueSize = 512
	cfg.ClientCounts = []int{1}
	cfg.ChaseDepths = []int{1}
	cfg.Warmup, cfg.Measure = time.Microsecond, time.Microsecond
	cfg.Seed = 42
	cfg.Parallel = 1
	runtime.GC()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		cfg.Keys = 4095 - int64(i)
		for _, fig := range figures {
			fig(cfg)
		}
	}
}

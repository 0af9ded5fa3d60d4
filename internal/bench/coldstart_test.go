package bench

import (
	"fmt"
	"testing"
)

// BenchmarkColdTemplate times one cold build of each system's template —
// construct, bulk load, capture — by keyspace: the cold-start table of
// EXPERIMENTS.md. Run it with -benchtime 1x; outside a sweep every call
// builds anew.
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

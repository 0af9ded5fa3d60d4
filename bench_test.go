// BenchmarkFigure regenerates every figure of the registry bench.Figures
// (DESIGN.md §4 indexes them against the paper), one sub-benchmark each:
//
//	go test -run '^$' -bench Figure -benchmem
//	go test -run '^$' -bench 'Figure/fig4$' -cpuprofile cpu.prof
//
// This is the profiling entry point. The sim clock is virtual, so ns/op is
// harness cost; the reported sim-µs / sim-ops/s are simulated. Each run
// uses a reduced keyspace and window that preserve the paper's shapes;
// cmd/prismbench renders the full curves and benchmark/ measures them.
package prism

import (
	"testing"
	"time"

	"prism/internal/bench"
)

// benchConfig is a trimmed configuration for fast regeneration in go test.
func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Keys = 4096
	cfg.Measure = 500 * time.Microsecond
	cfg.Warmup = 100 * time.Microsecond
	cfg.ClientCounts = []int{8, 64, 128}
	return cfg
}

// report logs every series and reports one summary metric for the
// figure's last series (the PRISM system in every comparison): its peak
// throughput for a ladder, its last point's mean latency for a
// categorical figure (one whose points carry labels).
func report(b *testing.B, fig *bench.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		for _, label := range s.Labels {
			b.Logf("%-32s %s", s.Name, label)
		}
		if len(s.Labels) == 0 {
			b.Logf("%-32s low-load latency %7.2fµs   peak %10.0f op/s", s.Name, float64(s.Points[0].Mean)/1e3, peak(s))
		}
	}
	last := fig.Series[len(fig.Series)-1]
	if len(last.Labels) == 0 {
		b.ReportMetric(peak(last), "sim-ops/s")
	} else {
		b.ReportMetric(float64(last.Points[len(last.Points)-1].Mean)/1e3, "sim-µs")
	}
}

func peak(s bench.Series) float64 {
	best := 0.0
	for _, pt := range s.Points {
		best = max(best, pt.Throughput)
	}
	return best
}

func BenchmarkFigure(b *testing.B) {
	for _, f := range bench.Figures {
		b.Run(f.Name, func(b *testing.B) {
			cfg := benchConfig()
			for i := 0; i < b.N; i++ {
				fig := f.Fn(cfg)
				if i == 0 {
					report(b, fig)
				}
			}
		})
	}
}

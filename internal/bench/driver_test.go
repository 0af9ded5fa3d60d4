package bench

import (
	"fmt"
	"testing"
	"time"
)

// sweepFigures is the registry minus fig-scale and fig-chase: the
// determinism sweeps below run every figure at tinyD, and those two have
// their own sweeps at their own shrunken ladders (TestFigScaleDeterministic,
// TestFigChaseDeterministic).
func sweepFigures() []FigureDef {
	var out []FigureDef
	for _, f := range Figures {
		if f.Name != "fig-scale" && f.Name != "fig-chase" {
			out = append(out, f)
		}
	}
	return out
}

// tinyD is an extra-small config for the all-figures sweeps and golden set.
func tinyD() Config {
	cfg := DefaultConfig()
	cfg.Keys = 512
	cfg.Warmup = 30 * time.Microsecond
	cfg.Measure = 150 * time.Microsecond
	cfg.ClientCounts = []int{3, 17}
	return cfg
}

// TestMaxOpsStopsEarly: the op cap stops a point at the measured op that
// reaches it. Clients issue nothing further, so at most the other
// clients' in-flight ops complete after it, and the run ends far short of
// an uncapped one.
func TestMaxOpsStopsEarly(t *testing.T) {
	const clients, maxOps = 16, 50
	cfg := tinyD()
	cfg.Measure = 2 * time.Millisecond
	cfg.MaxOps = maxOps
	run := func() (Point, *loadDriver) {
		// runPoint's sequence by hand, to read the driver's op count.
		cl := paperKV.build(cfg, PointSeed(cfg.Seed, "maxops", paperKV.name, clientsKey(clients)), load{readFrac: 1})
		d := newLoadDriver(cl.e, cfg)
		for i := 0; i < clients; i++ {
			d.spawn(fmt.Sprintf("c%d", i), cl.client(i))
		}
		return d.run(clients), d
	}
	pt, d := run()
	if d.ops < maxOps || d.ops > maxOps+clients-1 {
		t.Fatalf("MaxOps=%d measured %d ops, want %d to %d", maxOps, d.ops, maxOps, maxOps+clients-1)
	}
	if end := d.lastEnd.Sub(0); end >= cfg.Warmup+cfg.Measure/2 {
		t.Fatalf("capped run measured until %v of a %v window", end, cfg.Warmup+cfg.Measure)
	}
	if again, _ := run(); again != pt {
		t.Fatalf("capped point differs between identical runs:\n%+v\n%+v", pt, again)
	}
}

// TestPointTelemetryPopulated: every figure point reports its engine's
// scheduler counters, and the window counters the benchmark still reads
// stay zero.
func TestPointTelemetryPopulated(t *testing.T) {
	fig := Fig3(tinyD())
	points := 0
	for _, s := range fig.Series {
		points += len(s.Points)
	}
	if len(fig.PointTel) != points {
		t.Fatalf("PointTel has %d entries for %d points", len(fig.PointTel), points)
	}
	for i, tel := range fig.PointTel {
		if tel.EventsExecuted == 0 || tel.Bursts == 0 || tel.TimerFires == 0 || tel.AllocsPerOp <= 0 {
			t.Fatalf("point %d telemetry implausible: %+v", i, tel)
		}
		if tel.Windows != 0 || tel.Barriers != 0 {
			t.Fatalf("point %d counted %d windows and %d barriers on one engine", i, tel.Windows, tel.Barriers)
		}
	}
}

package bench

import (
	"testing"
	"time"
)

// sweepFigures is the registry minus fig-chase: the determinism sweeps
// below run every figure at tinyD, and fig-chase has its own sweep at its
// own shrunken ladder (TestFigChaseDeterministic).
func sweepFigures() []FigureDef {
	var out []FigureDef
	for _, f := range Figures {
		if f.Name != "fig-chase" {
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

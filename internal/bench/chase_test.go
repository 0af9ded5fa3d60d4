package bench

import (
	"bytes"
	"testing"
	"time"
)

// chaseTestConfig is a laptop-fast shrink of the fig-chase setup.
func chaseTestConfig() Config {
	cfg := DefaultConfig()
	cfg.ValueSize = 64
	cfg.Warmup = 20 * time.Microsecond
	cfg.Measure = 200 * time.Microsecond
	cfg.ChaseDepths = []int{1, 4}
	return cfg
}

// TestChaseLatencyShape is the figure's claim at two depths: the per-hop
// client pays one round trip per pointer hop, so its latency grows
// ~linearly with depth; the CHASE program pays one round trip plus a
// per-step NIC charge two orders of magnitude smaller, so its latency is
// sub-linear — and below the per-hop walk — by depth 8.
func TestChaseLatencyShape(t *testing.T) {
	cfg := chaseTestConfig()
	chase, hop := chaseStrategies[0], chaseStrategies[1]

	chase1, _ := chasePoint(chase, cfg, 1)
	chase8, telChase8 := chasePoint(chase, cfg, 8)
	hop1, _ := chasePoint(hop, cfg, 1)
	hop8, telHop8 := chasePoint(hop, cfg, 8)

	if r := float64(hop8.Mean) / float64(hop1.Mean); r < 4 {
		t.Fatalf("per-hop depth-8/depth-1 latency ratio %.2f, want ~8 (>= 4)", r)
	}
	if r := float64(chase8.Mean) / float64(chase1.Mean); r > 2 {
		t.Fatalf("chase depth-8/depth-1 latency ratio %.2f, want sub-linear (<= 2)", r)
	}
	if chase8.Mean >= hop8.Mean {
		t.Fatalf("depth-8 chase mean %v not below per-hop %v", chase8.Mean, hop8.Mean)
	}

	// Program telemetry: every chase lookup is one program of exactly
	// depth steps, so steps = 8 x programs (each program saved 7 round
	// trips); the per-hop walk runs no programs at all.
	if telChase8.ProgOps == 0 {
		t.Fatal("chase point ran no programs")
	}
	if telChase8.ProgSteps != 8*telChase8.ProgOps {
		t.Fatalf("steps=%d for %d depth-8 programs, want %d",
			telChase8.ProgSteps, telChase8.ProgOps, 8*telChase8.ProgOps)
	}
	if telHop8.ProgOps != 0 || telHop8.ProgSteps != 0 {
		t.Fatalf("per-hop walk counted programs: progs=%d steps=%d",
			telHop8.ProgOps, telHop8.ProgSteps)
	}
}

// TestFigChaseDeterministic: the rendered fig-chase CSV — including the
// program-counter labels — is byte-identical with and without point-level
// parallelism.
func TestFigChaseDeterministic(t *testing.T) {
	base := chaseTestConfig()
	render := func(cfg Config) string {
		var buf bytes.Buffer
		FigChase(cfg).FprintCSV(&buf)
		return buf.String()
	}
	want := render(base)
	cfg := base
	cfg.Parallel = 4
	if got := render(cfg); got != want {
		t.Errorf("fig-chase CSV differs under parallel=4:\n--- serial:\n%s--- parallel=4:\n%s", want, got)
	}
}

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

// tinyD is an extra-small config for the all-figures sweep (it runs every
// figure twice).
func tinyD() Config {
	cfg := DefaultConfig()
	cfg.Keys = 512
	cfg.Warmup = 30 * time.Microsecond
	cfg.Measure = 150 * time.Microsecond
	cfg.ClientCounts = []int{3, 17}
	return cfg
}

// TestDomainParallelMatchesSerial is the tentpole regression for the
// per-node event-domain scheduler: every figure must render byte-identical
// CSV whether domains execute serially or on a worker pool, composed with
// the inter-point pool. Conservative lookahead windows plus the fixed
// (time, src-domain, seq) merge order at barriers make the parallel
// schedule semantically invisible.
func TestDomainParallelMatchesSerial(t *testing.T) {
	const intra = 4 // domain workers under test
	for _, figure := range sweepFigures() {
		t.Run(figure.Name, func(t *testing.T) {
			serial := tinyD()
			serial.Intra = 1
			serial.Parallel = 1
			domains := tinyD()
			domains.Intra = intra
			domains.Parallel = 4
			a, b := render(figure.Fn(serial)), render(figure.Fn(domains))
			if a != b {
				t.Fatalf("intra=%d output differs from serial:\n--- serial ---\n%s--- intra=%d ---\n%s",
					intra, a, intra, b)
			}
		})
	}
}

// TestMaxOpsStopsEarly: the cross-domain op cap is enforced at window
// barriers, and identically so at any worker count.
func TestMaxOpsStopsEarly(t *testing.T) {
	base := tinyD()
	base.Measure = 2 * time.Millisecond
	base.MaxOps = 50
	run := func(intra int) (Point, int64) {
		cfg := base
		cfg.Intra = intra
		// runPoint's sequence by hand, to read the shards' op counts.
		cl := paperKV.build(cfg, PointSeed(cfg.Seed, "maxops", paperKV.name, clientsKey(16)), load{readFrac: 1})
		d := newLoadDriver(cl.e, cfg)
		for i := 0; i < 16; i++ {
			d.spawn(cl.place(i), fmt.Sprintf("c%d", i), cl.client(i))
		}
		pt := d.run(16)
		var ops int64
		for _, sh := range d.order {
			ops += sh.ops
		}
		return pt, ops
	}
	serial, ops := run(1)
	// The cap is detected one barrier late at worst, so allow modest
	// overshoot, but the run must stop well short of an uncapped run
	// (which completes thousands of ops in this window).
	if ops < 50 || ops > 500 {
		t.Fatalf("MaxOps=50 measured %d ops", ops)
	}
	if par, parOps := run(4); par != serial || parOps != ops {
		t.Fatalf("MaxOps point differs across worker counts:\nserial: %+v (%d ops)\nintra4: %+v (%d ops)",
			serial, ops, par, parOps)
	}
}

// BenchmarkIntraScaling measures one heavy figure point at increasing
// domain-worker counts (wall-clock scaling of the window scheduler).
func BenchmarkIntraScaling(b *testing.B) {
	for _, intra := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("intra=%d", intra), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Keys = 2048
			cfg.Warmup = 50 * time.Microsecond
			cfg.Measure = 500 * time.Microsecond
			cfg.Intra = intra
			for i := 0; i < b.N; i++ {
				runPoint(cfg, "intrascale", paperKV, load{readFrac: 0.5}, clientsKey(128), 128)
			}
		})
	}
}

// TestAffinityGroupingMatchesUngrouped is the tentpole regression for
// affinity groups: every figure must render byte-identical CSV whether
// each client machine gets its own event domain (ClientsPerDomain=1) or
// machines are co-located in groups — partial groups and one shared
// domain for all machines alike — composed with the domain-worker and
// point pools. Delivery order is (time, source node, send sequence), so
// the domain layout must be invisible.
func TestAffinityGroupingMatchesUngrouped(t *testing.T) {
	all := tinyD().ClientMachines
	for _, figure := range sweepFigures() {
		t.Run(figure.Name, func(t *testing.T) {
			want := render(figure.Fn(tinyD()))
			for _, g := range []int{4, all} { // partial groups, one shared domain
				cfg := tinyD()
				cfg.ClientsPerDomain = g
				cfg.Intra = 2
				cfg.Parallel = 4
				if got := render(figure.Fn(cfg)); got != want {
					t.Fatalf("ClientsPerDomain=%d output differs from ungrouped:\n--- ungrouped ---\n%s--- grouped ---\n%s",
						g, want, got)
				}
			}
		})
	}
}

// sumCrossings totals the window barriers crossed (hook sweeps run plus
// sweeps elided) over a figure's points.
func sumCrossings(fig *Figure) int64 {
	var n int64
	for _, tel := range fig.PointTel {
		n += tel.Barriers + tel.BarrierSkips
	}
	return n
}

// TestCrossRackGroupingIdentity: with the §8-style rack split (nonzero
// cross-rack latency) the physics change — output differs from the flat
// fabric — but output is still byte-identical across groupings and worker
// counts; and at identical physics, grouping every client machine into
// one domain crosses fewer barriers than one domain per machine.
func TestCrossRackGroupingIdentity(t *testing.T) {
	const extra = 500 * time.Nanosecond
	flat := render(Fig4(tinyD()))

	ungroupedCfg := tinyD()
	ungroupedCfg.CrossRack = extra
	ungroupedFig := Fig4(ungroupedCfg)
	base := render(ungroupedFig)
	if base == flat {
		t.Fatal("cross-rack latency had no effect on fig4")
	}

	groupedCfg := tinyD()
	groupedCfg.CrossRack = extra
	groupedCfg.ClientsPerDomain = groupedCfg.ClientMachines
	groupedCfg.Intra = 4
	groupedFig := Fig4(groupedCfg)
	if got := render(groupedFig); got != base {
		t.Fatalf("cross-rack output differs across groupings:\n--- ungrouped ---\n%s--- grouped ---\n%s",
			base, got)
	}

	ung, grp := sumCrossings(ungroupedFig), sumCrossings(groupedFig)
	if ung == 0 || grp == 0 {
		t.Fatalf("missing barrier telemetry: ungrouped=%d grouped=%d", ung, grp)
	}
	if grp >= ung {
		t.Fatalf("grouped run crossed %d barriers vs ungrouped %d; want fewer", grp, ung)
	}
}

// TestPointTelemetryPopulated: every figure point reports scheduler
// telemetry, and multi-machine points observe cross-domain traffic.
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
		if tel.Domains < 3 || tel.Windows == 0 || tel.Barriers == 0 || tel.CrossDeliveries == 0 {
			t.Fatalf("point %d telemetry implausible: %+v", i, tel)
		}
		if tel.MeanWindowNanos <= 0 {
			t.Fatalf("point %d mean window %dns", i, tel.MeanWindowNanos)
		}
	}
}

package bench

import (
	"fmt"
	"testing"
	"time"

	"prism/internal/sim"
	"prism/internal/workload"
)

// newTestGen builds the standard per-client read-only generator.
func newTestGen(cfg Config, seed int64, i int) *workload.Generator {
	return workload.NewGenerator(workload.Mix{
		Keys: cfg.Keys, ReadFrac: 1, ValueSize: cfg.ValueSize,
	}, clientSeed(seed, i))
}

// allFigures enumerates every figure generator the harness exports, so
// the domain-determinism regression sweeps the full surface.
var allFigures = []struct {
	name string
	fn   func(Config) *Figure
}{
	{"fig1", Fig1},
	{"fig2", Fig2},
	{"rpcvsrdma", RPCvsRDMA},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"ext-shards", ExtShards},
	{"ext-multikey", ExtMultiKey},
	{"ablation-abd-writeback", AblationABDWriteback},
	{"ablation-kv-slotcache", AblationKVSlotCache},
	{"ablation-redirect-target", AblationRedirectTarget},
	{"ablation-freelist-classes", AblationFreelistClasses},
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
	for _, figure := range allFigures {
		t.Run(figure.name, func(t *testing.T) {
			serial := tinyD()
			serial.Intra = 1
			serial.Parallel = 1
			domains := tinyD()
			domains.Intra = intra
			domains.Parallel = 4
			a, b := render(figure.fn(serial)), render(figure.fn(domains))
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
		seed := PointSeed(cfg.Seed, "maxops", "PRISM-KV", "clients=16")
		e, mkClient, place := buildPRISMKV(cfg, seed)
		d := newLoadDriver(e, cfg)
		for i := 0; i < 16; i++ {
			st := mkClient(i)
			gen := newTestGen(cfg, seed, i)
			d.spawn(place(i), fmt.Sprintf("c%d", i), func(p *sim.Proc) (int64, error) {
				_, key := gen.Next()
				_, err := st.Get(p, key)
				return 0, err
			})
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
				kvPoint(kvSystem{"PRISM-KV", buildPRISMKV}, cfg, "intrascale", 0.5, 128)
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
	for _, figure := range allFigures {
		t.Run(figure.name, func(t *testing.T) {
			want := render(figure.fn(tinyD()))
			for _, g := range []int{4, all} { // partial groups, one shared domain
				cfg := tinyD()
				cfg.ClientsPerDomain = g
				cfg.Intra = 2
				cfg.Parallel = 4
				if got := render(figure.fn(cfg)); got != want {
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
	var fig4 func(Config) *Figure
	for _, figure := range allFigures {
		if figure.name == "fig4" {
			fig4 = figure.fn
		}
	}
	const extra = 500 * time.Nanosecond
	flat := render(fig4(tinyD()))

	ungroupedCfg := tinyD()
	ungroupedCfg.CrossRack = extra
	ungroupedFig := fig4(ungroupedCfg)
	base := render(ungroupedFig)
	if base == flat {
		t.Fatal("cross-rack latency had no effect on fig4")
	}

	groupedCfg := tinyD()
	groupedCfg.CrossRack = extra
	groupedCfg.ClientsPerDomain = groupedCfg.ClientMachines
	groupedCfg.Intra = 4
	groupedFig := fig4(groupedCfg)
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
	for _, figure := range allFigures {
		if figure.name != "fig3" {
			continue
		}
		fig := figure.fn(tinyD())
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
}

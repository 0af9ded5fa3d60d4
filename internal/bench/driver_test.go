package bench

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"
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

// perMachineHashes holds "<figure> <sha256>" lines: each sweep figure's
// CSV at tinyD, and fig4's with a 500 ns rack split ("fig4-crossrack"), as
// the conservative window scheduler rendered them with one event domain per
// client machine.
//
//go:embed testdata/figures_per_machine.sha256
var perMachineHashes string

// perMachineHash returns the recorded hash of one entry.
func perMachineHash(t *testing.T, name string) string {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(perMachineHashes), "\n") {
		if n, hash, _ := strings.Cut(line, " "); n == name {
			return hash
		}
	}
	t.Fatalf("testdata/figures_per_machine.sha256 has no %s", name)
	return ""
}

func csvHash(csv string) string {
	sum := sha256.Sum256([]byte(csv))
	return hex.EncodeToString(sum[:])
}

// TestDomainParallelMatchesSerial: every figure renders byte-identical CSV
// serially and with its points on a worker pool. Intra is unread — a
// point runs on one engine on one goroutine — so setting it beside the
// pool must not move a byte either. The serial CSV's hash is the recorded
// one (tinyD is serial), which TestAffinityGroupingMatchesUngrouped checks
// a serial run still renders; the serial run here is made only to show a
// difference.
func TestDomainParallelMatchesSerial(t *testing.T) {
	for _, figure := range sweepFigures() {
		t.Run(figure.Name, func(t *testing.T) {
			pooled := tinyD()
			pooled.Intra = 4
			pooled.Parallel = 4
			b := render(figure.Fn(pooled))
			if csvHash(b) != perMachineHash(t, figure.Name) {
				serial := tinyD()
				serial.Intra = 1
				a := render(figure.Fn(serial))
				t.Fatalf("parallel=4 output differs from serial:\n--- serial ---\n%s--- parallel=4 ---\n%s", a, b)
			}
		})
	}
}

// TestAffinityGroupingMatchesUngrouped: every client machine of a point
// now shares the point's one engine — the limit of affinity grouping — and
// every figure still renders the CSV that one event domain per client
// machine rendered (testdata/figures_per_machine.sha256). Delivery order
// is (time, source node, send sequence), so the layout stays invisible.
func TestAffinityGroupingMatchesUngrouped(t *testing.T) {
	for _, figure := range sweepFigures() {
		t.Run(figure.Name, func(t *testing.T) {
			csv := render(figure.Fn(tinyD()))
			if got, want := csvHash(csv), perMachineHash(t, figure.Name); got != want {
				t.Fatalf("%s CSV hash = %s, want the per-machine-domain %s:\n%s", figure.Name, got, want, csv)
			}
		})
	}
}

// TestCrossRackGroupingIdentity: the §8-style rack split is physics —
// nonzero cross-rack latency changes fig4 — and with every machine on one
// engine the racked figure is the one that one domain per client machine
// rendered, on every run.
func TestCrossRackGroupingIdentity(t *testing.T) {
	flat := render(Fig4(tinyD()))
	cfg := tinyD()
	cfg.CrossRack = 500 * time.Nanosecond
	racked := render(Fig4(cfg))
	if racked == flat {
		t.Fatal("cross-rack latency had no effect on fig4")
	}
	if got, want := csvHash(racked), perMachineHash(t, "fig4-crossrack"); got != want {
		t.Fatalf("cross-rack fig4 CSV hash = %s, want the per-machine-domain %s:\n%s", got, want, racked)
	}
	if again := render(Fig4(cfg)); again != racked {
		t.Fatalf("cross-rack fig4 differs between identical runs:\n%s\nvs\n%s", racked, again)
	}
}

package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"prism/internal/sim"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	cfg := DefaultConfig()
	cfg.Keys = 512
	cfg.Warmup = 50 * time.Microsecond
	cfg.Measure = 300 * time.Microsecond
	cfg.ClientCounts = []int{4, 32}
	return cfg
}

func point(t *testing.T, fig *Figure, series string, idx int) Point {
	t.Helper()
	for _, s := range fig.Series {
		if s.Name == series {
			if idx >= len(s.Points) {
				t.Fatalf("series %q has %d points", series, len(s.Points))
			}
			return s.Points[idx]
		}
	}
	t.Fatalf("series %q not found in %s", series, fig.ID)
	return Point{}
}

func TestFig1Shapes(t *testing.T) {
	fig := Fig1(tiny())
	// PRISM SW read ≈ RDMA read + 2.5–3.2 µs.
	rdmaRead := point(t, fig, "RDMA", 0).Mean
	swRead := point(t, fig, "PRISM SW", 0).Mean
	diff := swRead - rdmaRead
	if diff < 2200*time.Nanosecond || diff > 3500*time.Nanosecond {
		t.Fatalf("software overhead for READ = %v, want ≈2.5-2.8µs", diff)
	}
	// BlueField is the slowest PRISM option on every op (§4.3).
	for i := 0; i < 5; i++ {
		bf := point(t, fig, "PRISM BlueField", i).Mean
		sw := point(t, fig, "PRISM SW", i).Mean
		hw := point(t, fig, "PRISM HW (proj.)", i).Mean
		if !(hw < sw && sw < bf) {
			t.Fatalf("op %d ordering: hw=%v sw=%v bf=%v", i, hw, sw, bf)
		}
	}
	// Stock RDMA cannot express the PRISM ops (points 2-4 are zero).
	for i := 2; i < 5; i++ {
		if point(t, fig, "RDMA", i).Mean != 0 {
			t.Fatalf("stock RDMA reported latency for PRISM-only op %d", i)
		}
	}
}

func TestFig2PRISMBeatsTwoReadsEverywhere(t *testing.T) {
	fig := Fig2(tiny())
	for i, profile := range []string{"rack", "cluster", "datacenter"} {
		two := point(t, fig, "2x RDMA", i).Mean
		sw := point(t, fig, "PRISM SW", i).Mean
		if sw >= two {
			t.Fatalf("%s: PRISM SW %v not faster than 2x RDMA %v", profile, sw, two)
		}
	}
	// The gap grows with network latency (the paper's core argument).
	gap := func(i int) time.Duration {
		return point(t, fig, "2x RDMA", i).Mean - point(t, fig, "PRISM SW", i).Mean
	}
	if !(gap(0) < gap(1) && gap(1) < gap(2)) {
		t.Fatalf("gap not increasing with scale: %v %v %v", gap(0), gap(1), gap(2))
	}
	// Datacenter scale: ~2x improvement (53 vs 29 µs in the paper). The
	// indirect read is one 24 µs round trip plus ≈3 µs of software stack,
	// not two round trips.
	dc := point(t, fig, "PRISM SW", 2).Mean
	if dc < 26*time.Microsecond || dc > 36*time.Microsecond {
		t.Fatalf("datacenter PRISM SW indirect read %v, want ≈29-30µs (one round trip)", dc)
	}
	ratio := float64(point(t, fig, "2x RDMA", 2).Mean) / float64(dc)
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("datacenter improvement ratio %.2f, want ≈1.8", ratio)
	}
}

func TestRPCvsRDMACrossover(t *testing.T) {
	fig := RPCvsRDMA(tiny())
	oneRead := point(t, fig, "one-sided READ", 0).Mean
	rpc := point(t, fig, "two-sided RPC", 0).Mean
	twoReads := point(t, fig, "2x one-sided READs", 0).Mean
	// §2.1: one READ clearly fastest; one RPC beats two dependent READs.
	if !(oneRead < rpc && rpc < twoReads) {
		t.Fatalf("crossover broken: read=%v rpc=%v 2reads=%v", oneRead, rpc, twoReads)
	}
}

func TestFig3ReadLatencyAnchors(t *testing.T) {
	fig := Fig3(tiny())
	prismLat := point(t, fig, "PRISM-KV", 0).Mean
	pilafHW := point(t, fig, "Pilaf", 0).Mean
	pilafSW := point(t, fig, "Pilaf (software RDMA)", 0).Mean
	// §6.2: ~6 µs vs ~8 µs vs ~14 µs.
	if !(prismLat < pilafHW && pilafHW < pilafSW) {
		t.Fatalf("ordering: prism=%v pilafHW=%v pilafSW=%v", prismLat, pilafHW, pilafSW)
	}
	if prismLat > 7*time.Microsecond || prismLat < 5*time.Microsecond {
		t.Fatalf("PRISM-KV GET %v, want ≈6µs", prismLat)
	}
	if pilafSW < 12*time.Microsecond || pilafSW > 16*time.Microsecond {
		t.Fatalf("Pilaf SW GET %v, want ≈14µs", pilafSW)
	}
	// Ratio of software-Pilaf to PRISM-KV ≈ 2x (two round trips + CRCs).
	if r := float64(pilafSW) / float64(prismLat); r < 1.8 || r > 2.8 {
		t.Fatalf("SW Pilaf/PRISM ratio %.2f, want ≈2.3", r)
	}
}

// §6.2 Fig. 4: at 50% writes Pilaf, whose PUT is one RPC, stays slightly
// ahead of PRISM-KV, whose PUT is a chain; on the software stack Pilaf
// loses that lead.
func TestFig4PilafAheadAtFiftyFifty(t *testing.T) {
	cfg := tiny()
	fig := Fig4(cfg)
	for i, clients := range cfg.ClientCounts {
		pilaf := point(t, fig, "Pilaf", i)
		pilafSW := point(t, fig, "Pilaf (software RDMA)", i)
		kv := point(t, fig, "PRISM-KV", i)
		if !(pilaf.Mean < kv.Mean && pilaf.Throughput > kv.Throughput) {
			t.Errorf("%d clients: Pilaf %v at %.0f op/s not ahead of PRISM-KV %v at %.0f op/s",
				clients, pilaf.Mean, pilaf.Throughput, kv.Mean, kv.Throughput)
		}
		if !(pilafSW.Mean > pilaf.Mean && pilafSW.Throughput < pilaf.Throughput) {
			t.Errorf("%d clients: Pilaf (software RDMA) %v at %.0f op/s not behind Pilaf %v at %.0f op/s",
				clients, pilafSW.Mean, pilafSW.Throughput, pilaf.Mean, pilaf.Throughput)
		}
		for _, p := range []Point{pilaf, pilafSW, kv} {
			if p.Errors > 0 {
				t.Errorf("%d clients: %d client errors", clients, p.Errors)
			}
		}
	}
}

func TestFig6PRISMRSWins(t *testing.T) {
	cfg := tiny()
	fig := Fig6(cfg)
	rs := point(t, fig, "PRISM-RS", 0).Mean
	lock := point(t, fig, "ABDLOCK", 0).Mean
	lockSW := point(t, fig, "ABDLOCK (software RDMA)", 0).Mean
	if !(rs < lock && lock < lockSW) {
		t.Fatalf("ordering: rs=%v lock=%v lockSW=%v", rs, lock, lockSW)
	}
	// No client errors anywhere.
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.Errors > 0 {
				t.Fatalf("%s: %d client errors", s.Name, pt.Errors)
			}
		}
	}
}

// §7.4 Fig. 7: PRISM-RS, whose writes never lock, holds its throughput
// at every skew; ABDLOCK's lock conflicts halve it by θ 0.8 and cut it to
// a fraction by θ 1.2, while its tail stretches.
func TestFig7RSFlatABDLOCKCollapses(t *testing.T) {
	fig := Fig7(tiny())
	const theta08, theta12 = 4, 7 // indices into Fig7's thetas
	rs0 := point(t, fig, "PRISM-RS", 0)
	lock0 := point(t, fig, "ABDLOCK", 0)
	for i := range fig.Series[0].Points {
		rs := point(t, fig, "PRISM-RS", i)
		if r := rs.Throughput / rs0.Throughput; r < 0.95 || r > 1.05 {
			t.Errorf("θ index %d: PRISM-RS at %.0f op/s, %.2fx its uniform %.0f; want flat within 5%%",
				i, rs.Throughput, r, rs0.Throughput)
		}
		if lock := point(t, fig, "ABDLOCK", i); rs.Throughput <= lock.Throughput {
			t.Errorf("θ index %d: PRISM-RS %.0f op/s not ahead of ABDLOCK %.0f", i, rs.Throughput, lock.Throughput)
		}
	}
	if lock := point(t, fig, "ABDLOCK", theta08); lock.Throughput > 0.7*lock0.Throughput {
		t.Errorf("ABDLOCK at θ 0.8: %.0f op/s, above 70%% of its uniform %.0f", lock.Throughput, lock0.Throughput)
	}
	lock12 := point(t, fig, "ABDLOCK", theta12)
	if lock12.Throughput > 0.25*lock0.Throughput {
		t.Errorf("ABDLOCK at θ 1.2: %.0f op/s, above 25%% of its uniform %.0f", lock12.Throughput, lock0.Throughput)
	}
	if lock12.P99 < 3*lock0.P99 {
		t.Errorf("ABDLOCK p99 %v at θ 1.2, under 3x its uniform %v", lock12.P99, lock0.P99)
	}
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.Errors > 0 {
				t.Fatalf("%s: %d client errors", s.Name, pt.Errors)
			}
		}
	}
}

func TestFig9PRISMTXWins(t *testing.T) {
	fig := Fig9(tiny())
	prismTX := point(t, fig, "PRISM-TX", 0).Mean
	farm := point(t, fig, "FaRM", 0).Mean
	farmSW := point(t, fig, "FaRM (software RDMA)", 0).Mean
	if !(prismTX < farm && farm < farmSW) {
		t.Fatalf("ordering: tx=%v farm=%v farmSW=%v", prismTX, farm, farmSW)
	}
	// The gap should be in the paper's few-µs class.
	if gap := farm - prismTX; gap < 2*time.Microsecond || gap > 9*time.Microsecond {
		t.Fatalf("PRISM-TX advantage %v, want ≈3-6µs", gap)
	}
}

// §8.3 Fig. 10: PRISM-TX's peak throughput is at least FaRM's through
// moderate skew (θ ≤ 0.8). At θ 1.6 it trails FaRM by up to 15%, the
// deviation EXPERIMENTS.md documents, and every series has collapsed below
// a quarter of its uniform peak.
func TestFig10TXHoldsThroughModerateSkew(t *testing.T) {
	fig := Fig10(tiny())
	const theta08, theta16 = 2, 6 // indices into Fig10's thetas
	for i := 0; i <= theta08; i++ {
		tx, farm := point(t, fig, "PRISM-TX", i), point(t, fig, "FaRM", i)
		if tx.Throughput < farm.Throughput {
			t.Errorf("θ index %d: PRISM-TX peak %.0f txns/s below FaRM's %.0f", i, tx.Throughput, farm.Throughput)
		}
	}
	tx, farm := point(t, fig, "PRISM-TX", theta16), point(t, fig, "FaRM", theta16)
	if tx.Throughput < 0.85*farm.Throughput {
		t.Errorf("θ 1.6: PRISM-TX peak %.0f txns/s more than 15%% below FaRM's %.0f", tx.Throughput, farm.Throughput)
	}
	for _, s := range fig.Series {
		if peak, skewed := s.Points[0].Throughput, s.Points[theta16].Throughput; skewed >= 0.25*peak {
			t.Errorf("%s: %.0f txns/s at θ 1.6, not below 25%% of its uniform peak %.0f", s.Name, skewed, peak)
		}
		for _, pt := range s.Points {
			if pt.Errors > 0 {
				t.Fatalf("%s: %d client errors", s.Name, pt.Errors)
			}
		}
	}
}

func TestFigurePrintRendersAllSeries(t *testing.T) {
	fig := RPCvsRDMA(tiny())
	var sb strings.Builder
	fig.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"one-sided READ", "two-sided RPC", "rpcvsrdma"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
}

// On entries that carry the stores' 16-byte header, the ladder the stores
// post fits more of the population into the budget than the paper's
// powers of two, and any ladder beats one max-size class.
func TestAblationFreelistClasses(t *testing.T) {
	fig := AblationFreelistClasses(tiny())
	pow2 := fig.Series[0].Points[0].Throughput
	built := fig.Series[1].Points[0].Throughput
	single := fig.Series[2].Points[0].Throughput
	if built <= pow2 || pow2 <= single {
		t.Fatalf("stored %v objects in the stores' classes, %v in power-of-two classes, %v in a single class; want them in that order",
			built, pow2, single)
	}
}

func TestDriverDeterminism(t *testing.T) {
	run := func() []Point {
		return ladder(tiny(), &Figure{ID: "fig3"}, []system{paperKV}, load{readFrac: 1}, clientsKey).Series[0].Points
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs across identical runs:\n%v\n%v", i, a[i], b[i])
		}
	}
}

// render captures a figure's exact CSV bytes for identity comparisons.
func render(fig *Figure) string {
	var sb strings.Builder
	fig.FprintCSV(&sb)
	return sb.String()
}

// TestParallelMatchesSerial is the tentpole regression: running the point
// pool with many workers must produce byte-identical output to the serial
// run, for a ladder figure and for a contention figure with multi-level
// point keys (Fig. 10 also exercises the peak-pick reassembly).
func TestParallelMatchesSerial(t *testing.T) {
	for _, figure := range []struct {
		name string
		fn   func(Config) *Figure
	}{
		{"fig4", Fig4},
		{"fig10", Fig10},
	} {
		t.Run(figure.name, func(t *testing.T) {
			serial := tiny()
			serial.Parallel = 1
			parallel := tiny()
			parallel.Parallel = 8
			if a, b := render(figure.fn(serial)), render(figure.fn(parallel)); a != b {
				t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
			}
		})
	}
}

// TestLadderRerunIdentical: the same seed must reproduce every point of a
// multi-series figure exactly, run to run.
func TestLadderRerunIdentical(t *testing.T) {
	cfg := tiny()
	cfg.Parallel = 4
	if a, b := render(Fig6(cfg)), render(Fig6(cfg)); a != b {
		t.Fatalf("identical seeds diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestPointSeedIdentity(t *testing.T) {
	a := PointSeed(42, "fig3", "PRISM-KV", "clients=64")
	if b := PointSeed(42, "fig3", "PRISM-KV", "clients=64"); a != b {
		t.Fatal("PointSeed not deterministic")
	}
	// Distinct identities get distinct seeds (field boundaries matter).
	others := []int64{
		PointSeed(43, "fig3", "PRISM-KV", "clients=64"),
		PointSeed(42, "fig4", "PRISM-KV", "clients=64"),
		PointSeed(42, "fig3", "Pilaf", "clients=64"),
		PointSeed(42, "fig3", "PRISM-KV", "clients=6"),
		PointSeed(42, "fig3", "PRISM-KV/clients=64", ""),
	}
	for i, o := range others {
		if o == a {
			t.Fatalf("identity %d collided with base seed", i)
		}
	}
}

func TestRunJobsOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		got := make([]int, 40)
		jobs := make([]func(), len(got))
		for i := range jobs {
			jobs[i] = func() { got[i] = i * i }
		}
		if wall := runJobs(workers, jobs); len(wall) != len(jobs) {
			t.Fatalf("workers=%d: %d wall-clock entries, want %d", workers, len(wall), len(jobs))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestSweepShape pins the one flatten/reassemble: points come back
// series-major in xs order, the label callback sees the indices, point and
// telemetry of its own cell, PointWall/PointTel have one entry per job in
// job order, and none of it depends on the worker count.
func TestSweepShape(t *testing.T) {
	series := []string{"a", "b", "c"}
	xs := []int{10, 20, 30, 40}
	run := func(parallel int, labelled bool) *Figure {
		fig := &Figure{ID: "shape"}
		var label func(si, xi int, pt Point, tel Telemetry) string
		if labelled {
			label = func(si, xi int, pt Point, tel Telemetry) string {
				return fmt.Sprintf("%d/%d/%d/%d", si, xi, pt.Clients, tel.EventsExecuted)
			}
		}
		sweep(Config{Parallel: parallel}, fig, series, xs, func(_ Config, si, x int) (Point, Telemetry) {
			return Point{Clients: 1000*si + x}, Telemetry{Stats: sim.Stats{EventsExecuted: int64(1000*si + x)}}
		}, label)
		return fig
	}
	fig := run(1, true)
	if len(fig.Series) != len(series) || len(fig.PointWall) != 12 || len(fig.PointTel) != 12 {
		t.Fatalf("%d series, %d wall entries, %d telemetry entries; want 3, 12, 12",
			len(fig.Series), len(fig.PointWall), len(fig.PointTel))
	}
	for si, s := range fig.Series {
		if s.Name != series[si] || len(s.Points) != len(xs) || len(s.Labels) != len(xs) {
			t.Fatalf("series %d = %q with %d points, %d labels", si, s.Name, len(s.Points), len(s.Labels))
		}
		for xi, pt := range s.Points {
			cell := 1000*si + xs[xi]
			if pt.Clients != cell || fig.PointTel[si*len(xs)+xi].EventsExecuted != int64(cell) {
				t.Fatalf("cell (%d,%d): point %d, telemetry %d, want %d",
					si, xi, pt.Clients, fig.PointTel[si*len(xs)+xi].EventsExecuted, cell)
			}
			if want := fmt.Sprintf("%d/%d/%d/%d", si, xi, cell, cell); s.Labels[xi] != want {
				t.Fatalf("cell (%d,%d): label %q, want %q", si, xi, s.Labels[xi], want)
			}
		}
	}
	if par := run(4, true); !reflect.DeepEqual(par.Series, fig.Series) || !reflect.DeepEqual(par.PointTel, fig.PointTel) ||
		len(par.PointWall) != 12 {
		t.Fatalf("Parallel=4 sweep differs from serial:\n%+v\nvs\n%+v", par, fig)
	}
	if bare := run(4, false); bare.Series[1].Labels != nil || !reflect.DeepEqual(bare.Series[2].Points, fig.Series[2].Points) {
		t.Fatalf("unlabelled sweep: labels %v, points %+v", bare.Series[1].Labels, bare.Series[2].Points)
	}
}

func TestFprintCSV(t *testing.T) {
	fig := RPCvsRDMA(tiny())
	var sb strings.Builder
	fig.FprintCSV(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 { // header + 3 series x 1 point
		t.Fatalf("csv lines: %d\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "figure,series,label,clients") {
		t.Fatalf("csv header: %q", lines[0])
	}
	for _, ln := range lines[1:] {
		if fields := strings.Split(ln, ","); len(fields) != 10 {
			t.Fatalf("csv row has %d fields: %q", len(fields), ln)
		}
	}
}

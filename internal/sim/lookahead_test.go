package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestLookaheadMatrixRelay: the all-pairs matrix takes the minimum over
// direct declarations, the uniform default, and relay paths through
// other domains; the diagonal becomes the cheapest round trip.
func TestLookaheadMatrixRelay(t *testing.T) {
	root := NewEngine(1)
	w := root.World()
	a, b, c := root, w.NewDomain(), w.NewDomain()
	def := Duration(1 * time.Millisecond)
	w.DeclareLookahead(def)
	w.SetLookahead(a, b, 10)
	w.SetLookahead(b, c, 20)
	w.rebuildDist()

	cases := []struct {
		src, dst *Engine
		want     Duration
	}{
		{a, b, 10},       // direct edge
		{b, c, 20},       // direct edge
		{a, c, 30},       // relay a->b->c beats the 1ms default
		{c, a, def},      // no cheaper relay exists
		{a, a, def + 10}, // cheapest cycle: a->b (10) + b->a (default)
		{b, b, def + 10}, // cheapest cycle: b->a (default) + a->b (10)
		{c, c, def + 20}, // cheapest cycle: c->b (default) + b->c (20)
	}
	for _, tc := range cases {
		if got := w.dist[tc.src.id][tc.dst.id]; got != tc.want {
			t.Errorf("dist[%d][%d] = %v, want %v", tc.src.id, tc.dst.id, got, tc.want)
		}
	}

	// A tighter re-declaration wins.
	w.SetLookahead(a, b, 5)
	w.rebuildDist()
	if got := w.dist[a.id][b.id]; got != 5 {
		t.Errorf("after tightening, dist[a][b] = %v, want 5", got)
	}
}

// TestLookaheadUndeclaredPairsUnbounded: without a uniform default,
// pairs with no declared path stay unbounded (laInf) — they never
// constrain each other's horizons.
func TestLookaheadUndeclaredPairsUnbounded(t *testing.T) {
	root := NewEngine(1)
	w := root.World()
	a, b, c := root, w.NewDomain(), w.NewDomain()
	w.SetLookahead(a, b, 10)
	w.rebuildDist()
	if got := w.dist[a.id][b.id]; got != 10 {
		t.Fatalf("dist[a][b] = %v, want 10", got)
	}
	for _, pair := range [][2]*Engine{{b, a}, {a, c}, {c, a}, {b, c}, {c, b}} {
		if got := w.dist[pair[0].id][pair[1].id]; got < laInf {
			t.Errorf("dist[%d][%d] = %v, want unbounded", pair[0].id, pair[1].id, got)
		}
	}
}

// TestAtTailRunsAfterSameInstant: AtTail events run strictly after every
// ordinary event of the same instant — including ones scheduled by those
// events — and keep FIFO order among themselves.
func TestAtTailRunsAfterSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []string
	add := func(s string) func() { return func() { got = append(got, s) } }
	e.At(5, func() {
		got = append(got, "a")
		e.At(5, add("a2")) // same-instant follow-up still precedes tails
	})
	e.AtTail(5, add("tail1"))
	e.At(5, add("b"))
	e.AtTail(5, add("tail2"))
	e.At(6, add("later"))
	e.Run()
	want := []string{"a", "b", "a2", "tail1", "tail2", "later"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// lockstepWorld builds nDom event domains (beyond root) each running a
// chain of self-events spaced step apart, with every inter-domain bound
// set to la. It returns the execution log and the scheduler stats.
func lockstepWorld(t *testing.T, nDom int, step, la Duration) (string, WorldStats) {
	t.Helper()
	root := NewEngine(9)
	w := root.World()
	doms := make([]*Engine, nDom)
	for i := range doms {
		doms[i] = w.NewDomain()
	}
	for i := range doms {
		for j := range doms {
			if i != j {
				w.SetLookahead(doms[i], doms[j], la)
			}
		}
	}
	log := ""
	for i, d := range doms {
		i, d := i, d
		var tick func()
		n := 0
		tick = func() {
			log += fmt.Sprintf("d%d@%v ", i, d.Now())
			if n++; n < 50 {
				d.Schedule(step, tick)
			}
		}
		d.Schedule(0, tick)
	}
	root.Run()
	return log, w.Stats()
}

// TestMatrixWindowsBeatScalar: with a long per-pair bound, matrix
// horizons cover several chain steps per window while a single scalar
// bound — the tightest lookahead anywhere in the world (here a pair of
// idle, closely-coupled domains), which is what the scheduler used before
// the matrix — barriers every step. The scalar reference is the same
// world with that tightest bound declared uniformly. Per-domain event
// outcomes must be identical; only the crossing count may differ (the
// global interleaving across domains is never observable).
func TestMatrixWindowsBeatScalar(t *testing.T) {
	run := func(scalar bool) (string, WorldStats) {
		root := NewEngine(9)
		w := root.World()
		if scalar {
			w.DeclareLookahead(10)
		}
		// Two busy domains with a generous mutual bound...
		f1, f2 := w.NewDomain(), w.NewDomain()
		w.SetLookahead(f1, f2, Duration(5*time.Microsecond))
		w.SetLookahead(f2, f1, Duration(5*time.Microsecond))
		// ...and two idle domains whose tight coupling sets the scalar bound.
		c1, c2 := w.NewDomain(), w.NewDomain()
		w.SetLookahead(c1, c2, 10)
		w.SetLookahead(c2, c1, 10)
		logs := make([]string, 2)
		for i, d := range []*Engine{f1, f2} {
			i, d := i, d
			n := 0
			var tick func()
			tick = func() {
				logs[i] += fmt.Sprintf("d%d@%v ", i, d.Now())
				if n++; n < 50 {
					d.Schedule(Duration(time.Microsecond), tick)
				}
			}
			d.Schedule(0, tick)
		}
		root.Run()
		return logs[0] + "| " + logs[1], w.Stats()
	}
	matLog, mat := run(false)
	scaLog, sca := run(true)
	if matLog != scaLog {
		t.Fatalf("event outcomes differ between window rules:\nmatrix: %s\nscalar: %s", matLog, scaLog)
	}
	if crossings(mat) >= crossings(sca) {
		t.Fatalf("matrix crossings (%d) not fewer than scalar (%d)", crossings(mat), crossings(sca))
	}
	if crossings(sca) < 50 {
		t.Fatalf("scalar bound crossed only %d barriers; expected one per chain step", crossings(sca))
	}
	if mat.Windows == 0 || mat.SpanWindows == 0 || mat.MeanWindow() <= sca.MeanWindow() {
		t.Fatalf("matrix windows=%d mean=%v vs scalar mean=%v; expected longer matrix windows",
			mat.Windows, mat.MeanWindow(), sca.MeanWindow())
	}
}

// TestWorldStatsCounters: the telemetry snapshot reflects domain count,
// executed windows, and fabric-reported cross deliveries.
func TestWorldStatsCounters(t *testing.T) {
	log, stats := lockstepWorld(t, 3, Duration(time.Microsecond), Duration(time.Microsecond))
	if log == "" {
		t.Fatal("no events executed")
	}
	if stats.Domains != 4 { // root + 3
		t.Fatalf("Domains = %d, want 4", stats.Domains)
	}
	if stats.Windows == 0 || stats.Barriers == 0 {
		t.Fatalf("windows=%d barriers=%d; expected nonzero", stats.Windows, stats.Barriers)
	}
	w := NewEngine(1).World()
	w.AddCrossDeliveries(3)
	w.AddCrossDeliveries(4)
	if got := w.Stats().CrossDeliveries; got != 7 {
		t.Fatalf("CrossDeliveries = %d, want 7", got)
	}
}

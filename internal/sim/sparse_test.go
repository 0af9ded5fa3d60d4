package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// crossings is the number of window barriers a run crossed: the hook
// sweeps that ran plus the ones elided.
func crossings(st WorldStats) int64 { return st.Barriers + st.BarrierSkips }

// sparseChains runs nBusy self-ticking chains plus nIdle domains that
// never schedule anything, with a counting barrier hook, and returns the
// execution log, the hook invocation count, and the stats. dense makes
// the hook re-request itself, so it sweeps at every crossing: the
// reference the elided runs are compared with. Window workers run the
// busy domains in parallel, so each domain appends to its own log; the
// logs are merged by (time, domain) after the run.
func sparseChains(t *testing.T, nBusy, nIdle int, dense bool, workers int) (string, int, WorldStats) {
	t.Helper()
	root := NewEngine(3)
	w := root.World()
	w.SetWorkers(workers)
	hooks := 0
	w.OnBarrier(func() {
		hooks++
		if dense {
			w.RequestBarrier()
		}
	})
	doms := make([]*Engine, nBusy)
	for i := range doms {
		doms[i] = w.NewDomain()
	}
	for i := 0; i < nIdle; i++ {
		w.NewDomain()
	}
	for i := range doms {
		for j := range doms {
			if i != j {
				w.SetLookahead(doms[i], doms[j], Duration(time.Microsecond))
			}
		}
	}
	type tickRec struct {
		at  Time
		dom int
	}
	logs := make([][]tickRec, nBusy)
	for i, d := range doms {
		i, d := i, d
		n := 0
		var tick func()
		tick = func() {
			logs[i] = append(logs[i], tickRec{d.Now(), i})
			if n++; n < 40 {
				d.Schedule(Duration(time.Microsecond), tick)
			}
		}
		d.Schedule(0, tick)
	}
	root.Run()
	var all []tickRec
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].at != all[b].at {
			return all[a].at < all[b].at
		}
		return all[a].dom < all[b].dom
	})
	log := ""
	for _, r := range all {
		log += fmt.Sprintf("d%d@%v ", r.dom, r.at)
	}
	return log, hooks, w.Stats()
}

// TestSparseBarriersElideIdleSweeps: with no producer ever raising the
// barrier-request flag (pure domain-local chains), the hooks run exactly
// once (the mandatory first sweep) and every other crossing counts as a
// skip — with the execution log byte-identical to the dense reference at
// both worker counts.
func TestSparseBarriersElideIdleSweeps(t *testing.T) {
	denseLog, denseHooks, dense := sparseChains(t, 3, 0, true, 1)
	if denseLog == "" || denseHooks < 2 {
		t.Fatalf("dense run degenerate: hooks=%d", denseHooks)
	}
	if dense.BarrierSkips != 0 {
		t.Fatalf("dense reference counted %d barrier skips", dense.BarrierSkips)
	}
	for _, workers := range []int{1, 4} {
		log, hooks, st := sparseChains(t, 3, 0, false, workers)
		if log != denseLog {
			t.Fatalf("workers=%d log differs from dense:\n%s\nvs\n%s", workers, log, denseLog)
		}
		if hooks != 1 {
			t.Fatalf("workers=%d ran hooks %d times, want 1", workers, hooks)
		}
		if st.Barriers != 1 || st.BarrierSkips == 0 {
			t.Fatalf("workers=%d barriers=%d skips=%d; want 1 sweep and >0 skips",
				workers, st.Barriers, st.BarrierSkips)
		}
		if crossings(st) != dense.Barriers {
			t.Fatalf("workers=%d sweeps+skips = %d, want %d crossings as dense",
				workers, crossings(st), dense.Barriers)
		}
	}
}

// TestIdleDomainsSkipped: domains with empty wheels leave the active set
// and are not touched by the window-start scan — IdleSkips accounts one
// per idle domain per executed window, whether sweeps are elided or not.
func TestIdleDomainsSkipped(t *testing.T) {
	for _, dense := range []bool{false, true} {
		_, _, st := sparseChains(t, 2, 5, dense, 1)
		if st.Windows == 0 {
			t.Fatal("no windows ran")
		}
		// Root plus the 5 never-scheduled domains are idle every window.
		if min := 6 * st.Windows; st.IdleSkips < min {
			t.Fatalf("dense=%v IdleSkips = %d, want >= %d (6 idle domains x %d windows)",
				dense, st.IdleSkips, min, st.Windows)
		}
	}
}

// TestRequestBarrierForcesSweep: raising the request flag mid-run makes
// the next crossing — and only that one — run its hooks.
func TestRequestBarrierForcesSweep(t *testing.T) {
	root := NewEngine(5)
	w := root.World()
	hooks := 0
	w.OnBarrier(func() { hooks++ })
	a, b := w.NewDomain(), w.NewDomain()
	w.SetLookahead(a, b, Duration(time.Microsecond))
	w.SetLookahead(b, a, Duration(time.Microsecond))
	for i := 0; i < 10; i++ {
		a.Schedule(Duration(i)*10*time.Microsecond, func() {})
		b.Schedule(Duration(i)*10*time.Microsecond, func() {})
	}
	hooksAtRequest := -1
	a.Schedule(35*time.Microsecond, func() {
		hooksAtRequest = hooks
		w.RequestBarrier()
	})
	root.Run()
	if hooksAtRequest < 0 {
		t.Fatal("request event never ran")
	}
	if hooks != hooksAtRequest+1 {
		t.Fatalf("hooks = %d after request at %d; want exactly one more sweep", hooks, hooksAtRequest)
	}
	if st := w.Stats(); st.BarrierSkips == 0 {
		t.Fatalf("no barrier skips counted: %+v", st)
	}
}

// TestActiveSetReactivation: a domain that drains empty and later
// receives a fresh event (scheduled from a barrier hook, the only
// legitimate cross-domain scheduling context) rejoins the active set and
// fires it. Nothing here sends, so the hook requests the sweeps it needs.
func TestActiveSetReactivation(t *testing.T) {
	root := NewEngine(8)
	w := root.World()
	lazy := w.NewDomain()
	w.DeclareLookahead(Duration(time.Microsecond))
	// Keep root busy so windows keep running after lazy drains.
	for i := 1; i <= 20; i++ {
		root.Schedule(Duration(i)*5*time.Microsecond, func() {})
	}
	lazy.Schedule(Duration(time.Microsecond), func() {})
	fired := false
	armed := false
	w.OnBarrier(func() {
		// Re-arm lazy once, well after its first event drained.
		if !armed && root.Now() > Time(30*time.Microsecond) {
			armed = true
			lazy.At(root.Now().Add(Duration(time.Microsecond)), func() { fired = true })
		}
		if !armed {
			w.RequestBarrier()
		}
	})
	root.Run()
	if !armed || !fired {
		t.Fatalf("armed=%v fired=%v; reactivated domain never ran its event", armed, fired)
	}
	if lazy.Now() < Time(30*time.Microsecond) {
		t.Fatalf("lazy clock %v never advanced to the late event", lazy.Now())
	}
}

// TestOnStatsHooks: registered hooks contribute to every snapshot.
func TestOnStatsHooks(t *testing.T) {
	w := NewEngine(1).World()
	w.OnStats(func(s *WorldStats) {
		s.ConnCacheHits += 10
		s.ConnCacheMisses += 3
		s.ConnCacheEvictions += 1
	})
	st := w.Stats()
	if st.ConnCacheHits != 10 || st.ConnCacheMisses != 3 || st.ConnCacheEvictions != 1 {
		t.Fatalf("stats hooks not applied: %+v", st)
	}
}

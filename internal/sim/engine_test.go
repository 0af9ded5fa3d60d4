package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30*time.Microsecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Microsecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Microsecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != Time(30*time.Microsecond) {
		t.Fatalf("clock = %v, want 30µs", e.Now())
	}
}

func TestScheduleFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(-time.Second, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved backwards: %v", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.Schedule(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(time.Microsecond, func() { got = append(got, 1) })
	e.Schedule(3*time.Microsecond, func() { got = append(got, 2) })
	e.RunUntil(Time(2 * time.Microsecond))
	if len(got) != 1 {
		t.Fatalf("RunUntil executed %v", got)
	}
	if e.Now() != Time(2*time.Microsecond) {
		t.Fatalf("clock = %v, want 2µs", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(got) != 2 {
		t.Fatalf("remaining event did not fire: %v", got)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() {
			n++
			if n == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 2 {
		t.Fatalf("ran %d events after Stop, want 2", n)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		wake = p.Now()
	})
	e.Run()
	if wake != Time(42*time.Microsecond) {
		t.Fatalf("woke at %v, want 42µs", wake)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	mk := func(name string, d time.Duration) {
		e.Go(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(d)
				trace = append(trace, name)
			}
		})
	}
	mk("a", 10*time.Microsecond)
	mk("b", 15*time.Microsecond)
	e.Run()
	// a wakes at 10, 20, 30; b wakes at 15, 30, 45. At the t=30 tie, b's
	// wakeup was scheduled (at t=15) before a's (at t=20), so b runs first.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestFutureWait(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[int](e)
	var got int
	var at Time
	e.Go("waiter", func(p *Proc) {
		got = f.Wait(p)
		at = p.Now()
	})
	e.Schedule(7*time.Microsecond, func() { f.Complete(99) })
	e.Run()
	if got != 99 || at != Time(7*time.Microsecond) {
		t.Fatalf("got %d at %v", got, at)
	}
}

func TestFutureWaitAlreadyComplete(t *testing.T) {
	e := NewEngine(1)
	f := CompletedFuture(e, "x")
	var got string
	e.Go("waiter", func(p *Proc) { got = f.Wait(p) })
	e.Run()
	if got != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[int](e)
	f.Complete(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Complete did not panic")
		}
	}()
	f.Complete(2)
}

func TestWaitQuorum(t *testing.T) {
	e := NewEngine(1)
	fs := make([]*Future[int], 5)
	for i := range fs {
		fs[i] = NewFuture[int](e)
	}
	var got []int
	var at Time
	e.Go("q", func(p *Proc) {
		got = WaitQuorum(p, 3, fs)
		at = p.Now()
	})
	// complete in scrambled order: 2@1µs, 4@2µs, 0@3µs, rest later
	e.Schedule(1*time.Microsecond, func() { fs[2].Complete(20) })
	e.Schedule(2*time.Microsecond, func() { fs[4].Complete(40) })
	e.Schedule(3*time.Microsecond, func() { fs[0].Complete(0) })
	e.Schedule(9*time.Microsecond, func() { fs[1].Complete(10) })
	e.Schedule(9*time.Microsecond, func() { fs[3].Complete(30) })
	e.Run()
	if at != Time(3*time.Microsecond) {
		t.Fatalf("quorum reached at %v, want 3µs", at)
	}
	if len(got) != 3 || got[0] != 20 || got[1] != 40 || got[2] != 0 {
		t.Fatalf("quorum values %v", got)
	}
}

func TestWaitQuorumAlreadySatisfied(t *testing.T) {
	e := NewEngine(1)
	fs := []*Future[int]{CompletedFuture(e, 1), CompletedFuture(e, 2), NewFuture[int](e)}
	var got []int
	e.Go("q", func(p *Proc) { got = WaitQuorum(p, 2, fs) })
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(1)
	wg := NewWaitGroup(e, 3)
	var at Time
	e.Go("w", func(p *Proc) {
		wg.Wait(p)
		at = p.Now()
	})
	for i := 1; i <= 3; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, wg.Done)
	}
	e.Run()
	if at != Time(3*time.Microsecond) {
		t.Fatalf("woke at %v", at)
	}
}

func TestResourceFIFOQueueing(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	var done []Time
	for i := 0; i < 3; i++ {
		r.Submit(10*time.Microsecond, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []Time{Time(10 * time.Microsecond), Time(20 * time.Microsecond), Time(30 * time.Microsecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
	if r.BusyTime() != 30*time.Microsecond {
		t.Fatalf("busy %v", r.BusyTime())
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	var second Time
	r.Submit(5*time.Microsecond, nil)
	e.Schedule(100*time.Microsecond, func() {
		r.Submit(5*time.Microsecond, func() { second = e.Now() })
	})
	e.Run()
	if second != Time(105*time.Microsecond) {
		t.Fatalf("second completion %v, want 105µs (no queueing after idle)", second)
	}
}

func TestMultiResourceParallelism(t *testing.T) {
	e := NewEngine(1)
	m := NewMultiResource(e, 2)
	var done []Time
	for i := 0; i < 4; i++ {
		m.Submit(10*time.Microsecond, func() { done = append(done, e.Now()) })
	}
	e.Run()
	// 2 servers: first two finish at 10µs, next two at 20µs.
	want := []Time{Time(10 * time.Microsecond), Time(10 * time.Microsecond), Time(20 * time.Microsecond), Time(20 * time.Microsecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
}

func TestResourceAcquireBlocks(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	var order []string
	e.Go("a", func(p *Proc) {
		r.Acquire(p, 10*time.Microsecond)
		order = append(order, "a")
	})
	e.Go("b", func(p *Proc) {
		r.Acquire(p, 10*time.Microsecond)
		order = append(order, "b")
	})
	e.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order %v", order)
	}
	if e.Now() != Time(20*time.Microsecond) {
		t.Fatalf("finished at %v, want 20µs (serialized)", e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var samples []Time
		for i := 0; i < 10; i++ {
			e.Go("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(e.Rand().Intn(1000)) * time.Nanosecond)
					samples = append(samples, p.Now())
				}
			})
		}
		e.Run()
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeAddSaturates(t *testing.T) {
	if Never.Add(time.Hour) != Never {
		t.Fatal("Time.Add overflowed past Never")
	}
}

func TestAtPastTimeClampsToNow(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10*time.Microsecond, func() {
		fired := false
		e.At(Time(2*time.Microsecond), func() { fired = true })
		_ = fired
	})
	// Must not panic or run events out of order; the past event fires at
	// the current instant.
	var order []int
	e.Schedule(10*time.Microsecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Microsecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("order %v", order)
	}
}

func TestProcYieldRunsSameInstantEvents(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Go("p", func(p *Proc) {
		trace = append(trace, "before")
		e.Schedule(0, func() { trace = append(trace, "event") })
		p.Yield()
		trace = append(trace, "after")
	})
	e.Run()
	want := []string{"before", "event", "after"}
	for i := range want {
		if i >= len(trace) || trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestFutureOnCompleteOrder(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[int](e)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		f.OnComplete(func(int) { order = append(order, i) })
	}
	f.Complete(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("waiters not FIFO: %v", order)
		}
	}
}

func TestResourceQueueDelay(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	if r.QueueDelay() != 0 {
		t.Fatal("idle resource reports backlog")
	}
	r.Submit(10*time.Microsecond, func() {})
	r.Submit(10*time.Microsecond, func() {})
	if got := r.QueueDelay(); got != 20*time.Microsecond {
		t.Fatalf("QueueDelay = %v, want 20µs", got)
	}
	e.Run() // clock advances past both completions
	if r.QueueDelay() != 0 {
		t.Fatal("drained resource reports backlog")
	}
}

func TestMultiResourceAcquire(t *testing.T) {
	e := NewEngine(1)
	m := NewMultiResource(e, 2)
	var done []Time
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			m.Acquire(p, 10*time.Microsecond)
			done = append(done, p.Now())
		})
	}
	e.Run()
	// Two run in parallel, third queues: completions at 10, 10, 20.
	if len(done) != 3 || done[0] != Time(10*time.Microsecond) || done[2] != Time(20*time.Microsecond) {
		t.Fatalf("completions %v", done)
	}
}

func TestWaitQuorumZero(t *testing.T) {
	e := NewEngine(1)
	fs := []*Future[int]{NewFuture[int](e)}
	var got []int
	e.Go("q", func(p *Proc) { got = WaitQuorum(p, 0, fs) })
	e.Run()
	if len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
}

// TestTimerStopGenerationAcrossWindows: a Timer handle that survives a
// window barrier must not cancel the recycled incarnation of its event
// object. The handle's event fires in an early window, the object is
// reused for a fresh event in a later window, and only then is the stale
// Stop attempted — with multiple worker goroutines, so the guard is
// exercised under the exact interleaving domain barriers produce.
func TestTimerStopGenerationAcrossWindows(t *testing.T) {
	e := NewEngine(1)
	other := e.World().NewDomain()
	e.World().DeclareLookahead(10 * time.Microsecond)
	e.World().SetWorkers(2)
	// Count every crossing: nothing here sends, so the hook re-requests
	// itself.
	var barriers int
	e.World().OnBarrier(func() { barriers++; e.World().RequestBarrier() })

	// Keep the second domain busy so the world actually runs windows.
	for i := 1; i <= 5; i++ {
		other.Schedule(Duration(i)*10*time.Microsecond, func() {})
	}

	fired, want := 0, 1
	// Window 1: the handle's event fires and its object is recycled.
	stale := e.Schedule(time.Microsecond, func() { fired++ })
	barrierAtFire := -1
	e.Schedule(2*time.Microsecond, func() { barrierAtFire = barriers })
	// A later window: the free list hands the same object to a new event.
	e.Schedule(25*time.Microsecond, func() {
		if barriers <= barrierAtFire {
			t.Errorf("no window barrier between fire (%d) and reuse (%d)", barrierAtFire, barriers)
		}
		// Drain the LIFO free list until it hands back stale's object.
		reused := false
		for i := 0; i < 4; i++ {
			tm := e.Schedule(10*time.Microsecond, func() { fired++ })
			want++
			if tm.ev == stale.ev {
				reused = true
				break
			}
		}
		if !reused {
			t.Error("free list did not reuse the stale timer's event object")
		}
		if stale.Stop() {
			t.Error("stale Timer handle cancelled a recycled event")
		}
	})
	e.Run()
	if fired != want {
		t.Fatalf("fired = %d of %d events (stale Stop killed a recycled event)", fired, want)
	}
}

// A domain's RNG is seeded when it is first asked for, from the world seed
// and the domain id alone: domain 0 draws the world seed's own stream,
// later domains a stream derived from (seed, id), in whatever order — or
// whether at all — the other domains draw.
func TestDomainRandStreams(t *testing.T) {
	const seed = 7
	root := NewEngine(seed)
	d1, d2 := root.World().NewDomain(), root.World().NewDomain()
	for _, c := range []struct {
		e    *Engine
		seed int64
	}{{d2, domainSeed(seed, 2)}, {root, seed}, {d1, domainSeed(seed, 1)}} {
		want := rand.New(rand.NewSource(c.seed))
		for i := 0; i < 4; i++ {
			if got, w := c.e.Rand().Int63(), want.Int63(); got != w {
				t.Fatalf("domain %d draw %d: %d, want %d", c.e.DomainID(), i, got, w)
			}
		}
	}
}

// A panic in a process body is a panic in the event that resumed it: it
// comes out of Run on the caller's goroutine with its value, serially and
// when a window worker was running the domain.
func TestProcPanicSurfacesInRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := NewEngine(1)
			w := e.World()
			w.SetWorkers(workers)
			w.DeclareLookahead(time.Microsecond)
			for i := 0; i < 3; i++ {
				d := w.NewDomain()
				d.Schedule(2*time.Microsecond, func() {})
			}
			boom := errors.New("boom")
			e.Go("doomed", func(p *Proc) {
				p.Sleep(2 * time.Microsecond)
				panic(boom)
			})
			defer func() {
				if r := recover(); r != boom {
					t.Fatalf("Run panicked with %v, want %v", r, boom)
				}
				if n := e.LiveProcs(); n != 0 {
					t.Fatalf("LiveProcs = %d after the only process panicked", n)
				}
			}()
			e.Run()
			t.Fatal("Run returned; the process's panic was lost")
		})
	}
}

// A process whose successive futures complete in different domains is
// resumed by whichever worker goroutine runs that domain's window, so
// successive resumes of one coroutine come from different goroutines.
// Barriers order them; `make race` runs this at -cpu 1,2,4.
func TestProcResumedAcrossDomains(t *testing.T) {
	const nDom, hops = 4, 64
	la := Duration(time.Microsecond)
	root := NewEngine(5)
	w := root.World()
	w.SetWorkers(4)
	w.DeclareLookahead(la)
	doms := []*Engine{root}
	for len(doms) < nDom {
		doms = append(doms, w.NewDomain())
	}
	// The test's fabric: a process stages a completion in the outbox of
	// the domain it is running in, and the barrier hook schedules it on
	// the future's domain one lookahead later.
	type msg struct {
		f  *Future[int]
		at Time
		v  int
	}
	out := make([][]msg, nDom)
	w.OnBarrier(func() {
		for i, box := range out {
			for _, m := range box {
				m.f.e.At(m.at, func() { m.f.Complete(m.v) })
			}
			out[i] = box[:0]
		}
	})
	// Every domain ticks on its own, so each window has work for several
	// workers, and a tick gives its thread away, so the workers a window
	// starts claim domains before the coordinator has run them all (it
	// does, windows this short, without the Gosched: measured, 117 of 128
	// resumes came from it; with it they come from ≈100 goroutines).
	for _, d := range doms {
		n := 0
		var tick func()
		tick = func() {
			runtime.Gosched()
			if n++; n < 4*hops {
				d.Schedule(la/2, tick)
			}
		}
		d.Schedule(0, tick)
	}
	visits := make([][]int, 2)
	for pi := range visits {
		visits[pi] = make([]int, nDom)
		doms[pi].Go(fmt.Sprintf("hopper%d", pi), func(p *Proc) {
			for i := 0; i < hops; i++ {
				here := p.Engine()
				target := doms[(here.DomainID()+1+i%(nDom-1))%nDom]
				f := NewFuture[int](target)
				at := p.Now().Add(la)
				out[here.DomainID()] = append(out[here.DomainID()], msg{f, at, i})
				w.RequestBarrier()
				if got := f.Wait(p); got != i {
					t.Errorf("hop %d returned %d", i, got)
				}
				if p.Engine() != target || p.Now() != at {
					t.Errorf("hop %d resumed in domain %d at %v, want domain %d at %v",
						i, p.Engine().DomainID(), p.Now(), target.DomainID(), at)
				}
				visits[pi][target.DomainID()]++
			}
		})
	}
	root.Run()
	if n := root.LiveProcs(); n != 0 {
		t.Fatalf("%d processes never finished", n)
	}
	for pi, v := range visits {
		for d, n := range v {
			if n == 0 {
				t.Errorf("hopper%d was never resumed in domain %d: %v", pi, d, v)
			}
		}
	}
}

// A process still parked when its world stops running (nothing will ever
// complete what it waits on) stays counted until something resumes it.
func TestLiveProcsCountsAbandonedWhileParked(t *testing.T) {
	e := NewEngine(1)
	never := NewSignal(e)
	e.Go("finishes", func(p *Proc) { p.Sleep(time.Microsecond) })
	e.Go("abandoned", func(p *Proc) { never.Wait(p) })
	e.Run()
	if n := e.LiveProcs(); n != 1 {
		t.Fatalf("LiveProcs = %d with one process parked, want 1", n)
	}
	e.Schedule(0, func() { Fire(never) })
	e.Run()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after the parked process was resumed, want 0", n)
	}
}

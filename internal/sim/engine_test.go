package sim

import (
	"errors"
	"fmt"
	"math/rand"
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

// A parked process runs inside the event that resumes it: its work lands
// before the rest of that event and the next event of the same instant.
func TestParkResume(t *testing.T) {
	e := NewEngine(1)
	var waiter *Proc
	var trace []string
	e.Go("waiter", func(p *Proc) {
		waiter = p
		p.Park()
		trace = append(trace, "resumed@"+p.Now().String())
	})
	e.Schedule(7*time.Microsecond, func() {
		waiter.Resume()
		trace = append(trace, "answer returns")
	})
	e.Schedule(7*time.Microsecond, func() { trace = append(trace, "next event") })
	e.Run()
	want := []string{"resumed@7µs", "answer returns", "next event"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
}

// Resuming a process that has returned is a bug in whatever still holds
// it, and panics.
func TestResumeFinishedProcPanics(t *testing.T) {
	e := NewEngine(1)
	var done *Proc
	e.Go("short", func(p *Proc) { done = p })
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Resume of a finished process did not panic")
		}
	}()
	done.Resume()
}

// quorum is a wait written on Park/Resume the way a simulated fan-out's
// Wait and WaitFirst are: answers arrive from events in completion order,
// and the waiter parks only while fewer than k are in, to be resumed
// inside the event that brings the k-th. The tests below hold the engine
// to the timing such waits rely on.
type quorum struct {
	got    []int
	k      int
	waiter *Proc
}

func (q *quorum) answer(v int) {
	q.got = append(q.got, v)
	if w := q.waiter; w != nil && len(q.got) == q.k {
		q.waiter = nil
		w.Resume()
	}
}

func (q *quorum) wait(p *Proc, k int) []int {
	if len(q.got) < k {
		q.k, q.waiter = k, p
		p.Park()
	}
	return q.got[:k]
}

// An answer already in when the wait starts returns at once, inside the
// process's own event: nothing else runs in between.
func TestNoParkWhenAnswered(t *testing.T) {
	e := NewEngine(1)
	var q quorum
	q.answer(99)
	var trace []string
	e.Go("waiter", func(p *Proc) {
		got := q.wait(p, 1)
		trace = append(trace, fmt.Sprint("got ", got, " at ", p.Now()))
	})
	e.Schedule(0, func() { trace = append(trace, "next event") })
	e.Run()
	if want := "[got [99] at 0s next event]"; fmt.Sprint(trace) != want {
		t.Fatalf("trace %v, want %v", trace, want)
	}
}

// A quorum of k of n resumes the waiter at the k-th completion's instant,
// inside its event, with the first k answers in completion order.
func TestResumeInsideKthAnswer(t *testing.T) {
	e := NewEngine(1)
	var q quorum
	var got []int
	var at Time
	var trace []string
	e.Go("q", func(p *Proc) {
		got = q.wait(p, 3)
		at = p.Now()
		trace = append(trace, "resumed")
	})
	// complete in scrambled order: 2@1µs, 4@2µs, 0@3µs, rest later
	e.Schedule(1*time.Microsecond, func() { q.answer(20) })
	e.Schedule(2*time.Microsecond, func() { q.answer(40) })
	e.Schedule(3*time.Microsecond, func() {
		q.answer(0)
		trace = append(trace, "third answer returns")
	})
	e.Schedule(3*time.Microsecond, func() { trace = append(trace, "next event") })
	e.Schedule(9*time.Microsecond, func() { q.answer(10) })
	e.Schedule(9*time.Microsecond, func() { q.answer(30) })
	e.Run()
	if at != Time(3*time.Microsecond) {
		t.Fatalf("quorum reached at %v, want 3µs", at)
	}
	if len(got) != 3 || got[0] != 20 || got[1] != 40 || got[2] != 0 {
		t.Fatalf("quorum values %v", got)
	}
	if want := "[resumed third answer returns next event]"; fmt.Sprint(trace) != want {
		t.Fatalf("trace %v, want %v", trace, want)
	}
}

// A quorum already satisfied when the wait starts returns the first k
// answers without parking.
func TestNoParkWhenQuorumIn(t *testing.T) {
	e := NewEngine(1)
	var q quorum
	q.answer(1)
	q.answer(2)
	var got []int
	e.Go("q", func(p *Proc) { got = q.wait(p, 2) })
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v", got)
	}
}

// Waiting for all n answers resumes at the last one.
func TestResumeAtLastAnswer(t *testing.T) {
	e := NewEngine(1)
	var q quorum
	var at Time
	e.Go("w", func(p *Proc) {
		q.wait(p, 3)
		at = p.Now()
	})
	for i := 1; i <= 3; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() { q.answer(i) })
	}
	e.Run()
	if at != Time(3*time.Microsecond) {
		t.Fatalf("woke at %v", at)
	}
}

// Processes resumed one after another from one event run in that order,
// each to its next park before the following Resume returns.
func TestParkResumeOrder(t *testing.T) {
	e := NewEngine(1)
	procs := make([]*Proc, 5)
	var order []int
	for i := range procs {
		e.Go("w", func(p *Proc) {
			procs[i] = p
			p.Park()
			order = append(order, i)
		})
	}
	e.Schedule(time.Microsecond, func() {
		for i, p := range procs {
			p.Resume()
			if len(order) != i+1 {
				t.Errorf("Resume of process %d returned before it ran", i)
			}
		}
	})
	e.Run()
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("resumed processes ran in order %v", order)
	}
}

// A quorum of zero returns nothing, at once.
func TestZeroQuorumReturnsAtOnce(t *testing.T) {
	e := NewEngine(1)
	var q quorum
	got := []int{-1}
	e.Go("q", func(p *Proc) { got = q.wait(p, 0) })
	e.Run()
	if len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
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

// A process takes a resource by submitting its own Resume as the work's
// completion and parking: two processes serialize on one server.
func TestResourceAcquireBlocks(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	var order []string
	for _, name := range []string{"a", "b"} {
		e.Go(name, func(p *Proc) {
			r.Submit(10*time.Microsecond, p.Resume)
			p.Park()
			order = append(order, name)
		})
	}
	e.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order %v", order)
	}
	if e.Now() != Time(20*time.Microsecond) {
		t.Fatalf("finished at %v, want 20µs (serialized)", e.Now())
	}
}

// Processes taking a two-server station the same way: two run in
// parallel, the third queues.
func TestMultiResourceAcquire(t *testing.T) {
	e := NewEngine(1)
	m := NewMultiResource(e, 2)
	var done []Time
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			m.Submit(10*time.Microsecond, p.Resume)
			p.Park()
			done = append(done, p.Now())
		})
	}
	e.Run()
	if len(done) != 3 || done[0] != Time(10*time.Microsecond) || done[2] != Time(20*time.Microsecond) {
		t.Fatalf("completions %v", done)
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

// TestResourceQueueDelay: work submitted to a busy resource queues behind
// the backlog, and a drained resource starts new work at once — read off
// the completion instants Submit returns.
func TestResourceQueueDelay(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	const d = 10 * time.Microsecond
	for i := 1; i <= 3; i++ {
		if got, want := r.Submit(d, func() {}), Time(0).Add(Duration(i)*d); got != want {
			t.Fatalf("submission %d completes at %v, want %v", i, got, want)
		}
	}
	e.Run()
	if e.Now() != Time(0).Add(3*d) {
		t.Fatalf("clock at %v after the backlog drained, want %v", e.Now(), 3*d)
	}
	if got, want := r.Submit(d, nil), e.Now().Add(d); got != want {
		t.Fatalf("submission to a drained resource completes at %v, want %v", got, want)
	}
}

// TestTimerStopGenerationAcrossWindows: a Timer handle that outlives its
// event must not cancel the recycled incarnation of the event object. The
// handle's event fires in one RunUntil window, the object is reused for a
// fresh event in a later window, and only then is the stale Stop
// attempted.
func TestTimerStopGenerationAcrossWindows(t *testing.T) {
	e := NewEngine(1)
	fired, want := 0, 1
	stale := e.Schedule(time.Microsecond, func() { fired++ })
	e.RunUntil(Time(10 * time.Microsecond))
	if fired != 1 {
		t.Fatalf("first window fired %d events, want 1", fired)
	}
	// A later window: the free list hands the same object to a new event.
	e.Schedule(15*time.Microsecond, func() {
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

// The engine's RNG is the stream of its seed, seeded when it is first
// asked for.
func TestRandIsTheSeedStream(t *testing.T) {
	const seed = 7
	e := NewEngine(seed)
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		if got, w := e.Rand().Int63(), want.Int63(); got != w {
			t.Fatalf("draw %d: %d, want %d", i, got, w)
		}
	}
}

// A panic in a process body is a panic in the event that resumed it: it
// comes out of Run on the caller's goroutine with its value.
func TestProcPanicSurfacesInRun(t *testing.T) {
	e := NewEngine(1)
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

// TestStatsCounters: the snapshot counts fired events, drained instants,
// wheel transits and stopped timers.
func TestStatsCounters(t *testing.T) {
	e := NewEngine(1)
	nop := func() {}
	e.Schedule(time.Microsecond, func() {
		e.Schedule(0, nop) // same instant: fires from the burst, not the wheel
	})
	e.Schedule(2*time.Microsecond, nop)
	e.Schedule(3*time.Microsecond, nop).Stop()
	e.Run()
	st := e.Stats()
	if st.EventsExecuted != 3 || st.Bursts != 2 || st.TimerFires != 2 || st.TimerStops != 1 {
		t.Fatalf("stats %+v, want 3 events in 2 bursts, 2 wheel fires, 1 stop", st)
	}
	if st.MeanBurstLen() != 1.5 {
		t.Fatalf("MeanBurstLen = %v, want 1.5", st.MeanBurstLen())
	}
}

// TestCountersReachStats: what a layer adds through Counters shows in
// every later snapshot, beside the scheduler's own counts, and a snapshot
// is a copy.
func TestCountersReachStats(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Microsecond, func() {
		c := e.Counters()
		c.RequestsServed += 4
		c.OpsExecuted += 5
		c.ProgOps += 2
		c.ProgSteps += 16
	})
	e.Run()
	st := e.Stats()
	if st.RequestsServed != 4 || st.OpsExecuted != 5 ||
		st.ProgOps != 2 || st.ProgSteps != 16 || st.EventsExecuted != 1 {
		t.Fatalf("stats %+v, want the added counters and 1 event", st)
	}
	st.ProgOps = 0
	if e.Stats().ProgOps != 2 {
		t.Fatal("writing a snapshot reached the engine")
	}
}

// A process still parked when its engine stops running (nothing will ever
// complete what it waits on) stays counted until something resumes it.
func TestLiveProcsCountsAbandonedWhileParked(t *testing.T) {
	e := NewEngine(1)
	var parked *Proc
	e.Go("finishes", func(p *Proc) { p.Sleep(time.Microsecond) })
	e.Go("abandoned", func(p *Proc) { parked = p; p.Park() })
	e.Run()
	if n := e.LiveProcs(); n != 1 {
		t.Fatalf("LiveProcs = %d with one process parked, want 1", n)
	}
	e.Schedule(0, parked.Resume)
	e.Run()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after the parked process was resumed, want 0", n)
	}
}

// Running is nil in a plain event, the body's process inside Go, restored
// when process A resumes process B from A's body and B parks, and nil
// again after Run returns.
func TestEngineRunning(t *testing.T) {
	e := NewEngine(1)
	var a, b *Proc
	var inEvent, inB, inBResumed, inAAfter *Proc
	e.Schedule(0, func() { inEvent = e.Running() })
	e.Go("b", func(p *Proc) {
		b = p
		inB = e.Running()
		p.Park()
		inBResumed = e.Running()
		p.Park() // back to a, which resumed it
	})
	e.Go("a", func(p *Proc) {
		a = p
		b.Resume()
		inAAfter = e.Running()
	})
	e.Run()
	b.Resume() // let b finish, from outside any event
	if inEvent != nil {
		t.Errorf("Running in a plain event = %q, want nil", inEvent.Name())
	}
	if inB != b || inBResumed != b {
		t.Errorf("Running inside b's body is not b")
	}
	if inAAfter != a {
		t.Errorf("Running in a after b parked is not a")
	}
	if r := e.Running(); r != nil {
		t.Errorf("Running after Run = %q, want nil", r.Name())
	}
	if e.LiveProcs() != 0 {
		t.Errorf("%d processes left", e.LiveProcs())
	}
}

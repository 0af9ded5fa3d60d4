// Package sim provides a deterministic discrete-event simulation engine.
//
// An Engine owns one virtual clock, one pending-event wheel, an event free
// list and a seeded RNG stream. Every machine of a simulated cluster runs
// on its cluster's one engine, and Run drains it instant by instant on the
// calling goroutine.
//
// Work is expressed either as plain callback events (Schedule/At) or as
// blocking processes (Go), which are coroutines: an event resumes a
// process by switching to it directly and gets control back when the
// process parks, so at any moment exactly one goroutine — the run loop or
// one of its processes — is executing and the Go scheduler never sees two
// runnable sides. This keeps all simulation state single-threaded (no data
// races, fully deterministic) while letting protocol code be written in a
// natural blocking style: a process Parks, and the event that answers it
// Resumes it.
//
// Determinism: events at the same virtual time fire in the order they
// were scheduled (FIFO tie-break by sequence number), and the RNG is
// seeded from the engine's seed, so two runs with the same seed produce
// identical traces.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"time"
)

// Time is a virtual instant, in nanoseconds since the start of the run.
type Time int64

// Duration aliases time.Duration for readability at call sites.
type Duration = time.Duration

const (
	// Never is a sentinel Time later than any reachable instant.
	Never Time = 1<<63 - 1
)

// Add returns t shifted by d, saturating at Never.
func (t Time) Add(d Duration) Time {
	s := t + Time(d)
	if s < t && d > 0 {
		return Never
	}
	return s
}

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the instant as a duration from time zero.
func (t Time) String() string { return Duration(t).String() }

type event struct {
	at  Time
	seq uint64
	fn  func()
	// tail events run after every ordinary event of the same instant,
	// regardless of scheduling order (see AtTail).
	tail bool
	// gen counts recycles of this event object. Timers snapshot it so a
	// stale handle to a fired-and-reused event cannot cancel its successor.
	gen uint32
	// state says where the event currently lives (see evIdle and
	// friends); level and slot locate it in the wheel while state is
	// evWheel. fromWheel marks burst members that transited the wheel,
	// for the timer_fires counter (burst-direct same-instant events never
	// touch the wheel).
	state     uint8
	level     uint8
	slot      uint8
	fromWheel bool
	// Wheel slot list links; next doubles as the free-list link while
	// the event is recycled.
	prev, next *event
}

// Event locations, kept in event.state so Timer.Stop knows how to cancel.
const (
	evIdle     uint8 = iota // fired, cancelled, or on the free list
	evWheel                 // linked into a wheel slot
	evOverflow              // parked on the wheel's overflow list
	evBurst                 // staged in the current instant's burst buffers
)

// burst is the reusable buffer one instant's events drain into: ordinary
// events and tail events in separate seq-ordered queues, consumed front to
// back. Same-instant events scheduled while the burst executes append
// behind the cursor (their seq is larger than anything pending), so one
// pass replays the exact (ordinary-by-seq, then tail-by-seq) order the
// event heap used to produce — with the heap maintenance paid once per
// instant instead of once per event.
type burst struct {
	ord, tail         []*event
	ordHead, tailHead int
}

func (b *burst) reset() {
	b.ord = b.ord[:0]
	b.tail = b.tail[:0]
	b.ordHead, b.tailHead = 0, 0
}

// Stats counts scheduler work: EventsExecuted is events fired, Bursts the
// number of drained instants (MeanBurstLen reports the amortization
// ratio), TimerFires the fired events that transited the wheel (the
// remainder were same-instant burst-direct schedules that never paid wheel
// maintenance), TimerStops the timers cancelled before firing (O(1) wheel
// unlinks), and WheelCascades the events re-filed to a finer wheel level
// when the clock crossed a coarse slot boundary.
//
// The layers running on the engine add the rest through Counters: the
// simulated NIC (internal/rdma) its request, op and verb-program counts.
type Stats struct {
	EventsExecuted int64
	Bursts         int64
	TimerFires     int64
	TimerStops     int64
	WheelCascades  int64

	// Requests served, ops executed (skipped ones excluded), and verb
	// programs (CHASE/SCAN ops) and their loop iterations, under the live
	// server's names. ProgSteps-ProgOps is the round trips they collapsed.
	RequestsServed int64
	OpsExecuted    int64
	ProgOps        int64
	ProgSteps      int64
}

// MeanBurstLen returns the mean number of events executed per drained
// instant, or 0 if nothing ran.
func (s Stats) MeanBurstLen() float64 {
	if s.Bursts == 0 {
		return 0
	}
	return float64(s.EventsExecuted) / float64(s.Bursts)
}

// Engine is a discrete-event scheduler with its own clock, event wheel and
// RNG stream. It is not safe for concurrent use: all interaction must
// happen from its events and processes, or from the goroutine that calls
// Run, between runs.
type Engine struct {
	seed int64
	now  Time
	seq  uint64
	rng  *rand.Rand // nil until Rand is first called

	// wheel holds the pending events; burst is the reusable buffer one
	// instant's events drain into for execution. inBurst routes
	// same-instant schedules straight into the executing burst, and
	// pendingN tracks scheduled-but-unfired events for Pending.
	wheel    wheel
	burst    burst
	inBurst  bool
	pendingN int

	// free is a free list of fired/cancelled event objects, reused by At
	// so steady-state scheduling does not allocate. Its length is bounded
	// by the maximum number of simultaneously pending events.
	free *event

	procs   int // live processes
	stopped bool
	running bool // inside Run: the re-entrancy guard
	// current is the process whose body is executing, nil in a plain
	// event; Resume sets it around the switch (see Running).
	current *Proc

	// stats holds every counter but WheelCascades, which the wheel keeps;
	// higher layers add theirs through Counters.
	stats Stats
}

// NewEngine returns an engine with its virtual clock at zero and an RNG
// seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Seed returns the engine's seed; per-node RNG streams are derived from
// it.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic RNG, the stream of its seed. It
// must only be used from simulation context (events and processes). The
// stream is seeded on first use: a source costs ≈10 µs and 5 KB, and most
// engines never draw.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// Stats returns a snapshot of the engine's counters. Call it between runs.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.WheelCascades = e.wheel.cascades
	return s
}

// Counters returns the engine's counters for the layers running on it to
// add to (the rdma layer adds its NIC connection-cache and verb-program
// counts). Like the engine, it is not safe for concurrent use.
func (e *Engine) Counters() *Stats { return &e.stats }

// Schedule runs fn after d has elapsed on the engine's clock. A negative
// d is treated as zero. The returned Timer can cancel the event.
func (e *Engine) Schedule(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At runs fn at virtual instant t (or now, if t is in the past).
func (e *Engine) At(t Time, fn func()) Timer {
	return e.at(t, fn, false)
}

// AtTail runs fn at instant t, after every ordinarily-scheduled event of
// that instant — including ones not yet scheduled when AtTail is called.
// The fabric uses this to drain same-instant arrival batches in a
// canonical order that cannot depend on when the batch members were
// scheduled.
func (e *Engine) AtTail(t Time, fn func()) Timer {
	return e.at(t, fn, true)
}

func (e *Engine) at(t Time, fn func(), tail bool) Timer {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.tail = tail
	e.seq++
	e.pendingN++
	if e.inBurst && t == e.now {
		// Scheduled for the instant currently executing: append behind
		// the burst cursor instead of paying a wheel round trip. seq is
		// larger than anything pending, so the queues stay seq-sorted.
		ev.state = evBurst
		ev.fromWheel = false
		if tail {
			e.burst.tail = append(e.burst.tail, ev)
		} else {
			e.burst.ord = append(e.burst.ord, ev)
		}
	} else {
		e.wheel.insert(ev)
	}
	return Timer{e: e, ev: ev, gen: ev.gen}
}

// alloc takes an event object off the free list, or makes a fresh one.
func (e *Engine) alloc() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	return &event{}
}

// recycle returns a fired or cancelled event to the free list. Bumping gen
// invalidates any outstanding Timer for the old incarnation.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.state = evIdle
	ev.fromWheel = false
	ev.prev = nil
	ev.next = e.free
	e.free = ev
}

// Timer is a handle to a scheduled event. The zero Timer is valid and
// behaves as an already-fired event.
type Timer struct {
	e   *Engine
	ev  *event
	gen uint32
}

// Stop cancels the event if it has not fired. It reports whether the event
// was still pending.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return false
	}
	e := t.e
	switch ev.state {
	case evWheel, evOverflow:
		e.wheel.remove(ev)
		e.pendingN--
		e.stats.TimerStops++
		e.recycle(ev)
		return true
	case evBurst:
		// Already staged for the executing instant but not yet fired:
		// cancel in place; the burst loop skips and recycles it.
		ev.fn = nil
		ev.state = evIdle
		e.pendingN--
		e.stats.TimerStops++
		return true
	}
	return false
}

// Stop halts the run loop after the current event completes. Pending
// events are left unfired.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until none are pending or Stop is called. It
// panics if called re-entrantly.
func (e *Engine) Run() { e.RunUntil(Never) }

// RunUntil processes events with timestamps <= deadline, one burst per
// instant: the wheel drains everything at the head instant into the burst
// buffers and the loop replays them — plus any same-instant events they
// schedule — in one pass, amortizing wheel maintenance across the burst.
// The clock is left at the deadline if it is reached, or at the time of
// the last event otherwise.
func (e *Engine) RunUntil(deadline Time) {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	b := &e.burst
	for !e.stopped {
		t := e.wheel.next()
		if t == Never || t > deadline {
			break
		}
		if e.wheel.collect(t, b) == 0 {
			continue // stale cached minimum (cancelled); rescan
		}
		e.now = t
		e.inBurst = true
		executed := 0
		for {
			if e.stopped {
				e.unwindBurst()
				break
			}
			var ev *event
			if b.ordHead < len(b.ord) {
				ev = b.ord[b.ordHead]
				b.ord[b.ordHead] = nil
				b.ordHead++
			} else if b.tailHead < len(b.tail) {
				ev = b.tail[b.tailHead]
				b.tail[b.tailHead] = nil
				b.tailHead++
			} else {
				break
			}
			if ev.fn == nil {
				e.recycle(ev) // cancelled while staged in the burst
				continue
			}
			if ev.fromWheel {
				e.stats.TimerFires++
			}
			fn := ev.fn
			e.recycle(ev) // before fn: events scheduled inside fn reuse it
			e.pendingN--
			fn()
			executed++
		}
		e.inBurst = false
		b.reset()
		e.stats.EventsExecuted += int64(executed)
		e.stats.Bursts++
	}
	if deadline != Never && e.now < deadline {
		e.now = deadline
	}
}

// unwindBurst returns the not-yet-fired remainder of the executing burst
// to the wheel when Stop halts the run mid-instant, so those events stay
// pending exactly as unfired heap events used to.
func (e *Engine) unwindBurst() {
	b := &e.burst
	for _, q := range [2][]*event{b.ord[b.ordHead:], b.tail[b.tailHead:]} {
		for _, ev := range q {
			if ev.fn == nil {
				e.recycle(ev) // cancelled while staged
				continue
			}
			e.wheel.count-- // insert re-counts
			e.wheel.insert(ev)
		}
	}
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return e.pendingN }

// LiveProcs reports the number of processes that have started but not
// finished (parked processes included). Useful for leak detection in
// tests.
func (e *Engine) LiveProcs() int { return e.procs }

// ---------------------------------------------------------------------------
// Processes

// Proc is a blocking simulation process. Its methods other than Resume must
// only be called from the process's own body.
//
// A process is a coroutine (iter.Pull): Resume is the coroutine's next and
// Park its yield, so a resume is a direct switch from the run loop's
// goroutine to the body's and back. Nothing is ever runnable on both
// sides at once, so no run queue, wakep or futex is involved, and exactly
// one goroutine calls next at a time: the run loop, or a process that
// answers this one from its own body.
//
// A panic in the body comes out of Resume, i.e. out of the event that
// resumed the process, and so out of Run on the caller's goroutine like a
// panic in any other event. A process abandoned while parked (its engine
// is dropped before it finishes) keeps its goroutine and stays counted by
// LiveProcs.
type Proc struct {
	e     *Engine
	name  string
	next  func() (struct{}, bool) // resumer -> body, until it parks or returns
	yield func(struct{}) bool     // body -> whoever called next; set on the first Resume
	dead  bool
}

// Go starts fn as a new process. fn begins executing at the current
// virtual time but only after the current event completes (it is
// scheduled like any other event).
func (e *Engine) Go(name string, fn func(p *Proc)) {
	p := &Proc{e: e, name: name}
	e.procs++
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			p.dead = true
			e.procs--
		}()
		p.yield = yield
		fn(p)
	})
	e.Schedule(0, p.Resume)
}

// Running returns the process whose body is executing, or nil inside a
// plain event and between runs. The engine runs one process at a time, so
// code a process calls into — a connection's Issue, a fan-out's wait —
// learns whom to park from here rather than from an argument.
func (e *Engine) Running() *Proc { return e.current }

// Resume transfers control to the parked process until it parks again or
// exits. It is the one way to answer a Park: whatever the process parked
// on — a response, a fan-out round, a peer process — keeps the *Proc and
// calls Resume from the event that answers it, so the process runs inside
// that event. Running is p for the switch and the previous value again
// after it: a process may resume another from its own body.
func (p *Proc) Resume() {
	if p.dead {
		panic(fmt.Sprintf("sim: resuming dead proc %q", p.name))
	}
	prev := p.e.current
	p.e.current = p
	p.next()
	p.e.current = prev
}

// Park returns control to whoever resumed the process, until something
// calls Resume. Only the process itself may call it, and only after
// handing its *Proc to what will resume it.
func (p *Proc) Park() { p.yield(struct{}{}) }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.e.Schedule(d, p.Resume)
	p.Park()
}

// Yield suspends the process until all other events scheduled for the
// current instant have run.
func (p *Proc) Yield() { p.Sleep(0) }

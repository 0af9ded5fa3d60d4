// Package sim provides a deterministic discrete-event simulation engine.
//
// The simulator is organized as a World of event domains. Each domain
// (represented by an Engine handle) owns its own virtual clock, event
// heap, free list, and seeded RNG stream; a conservative time-window
// scheduler advances all domains together. Within one synchronized
// window, domains are independent — they may execute on parallel worker
// goroutines — because cross-domain interaction is only possible through
// messages whose minimum propagation latency (the lookahead, declared by
// the fabric) bounds the window length. Deliveries produced during a
// window are buffered and merged at the window barrier in a fixed total
// order, so execution is deterministic at any worker count.
//
// A single-domain world (the common case for unit tests) degenerates to
// the classic single-heap event loop with identical semantics.
//
// Work is expressed either as plain callback events (Schedule/At) or as
// blocking processes (Go), which are coroutines: an event resumes a
// process by switching to it directly and gets control back when the
// process parks, so at any moment at most one goroutine per domain — the
// domain's window loop or exactly one of its processes — is executing
// and the Go scheduler never sees two runnable sides. This keeps all
// simulation state domain-local (no data races, fully deterministic)
// while letting protocol code be written in a natural blocking style
// (Sleep, Future.Wait, Resource.Acquire).
//
// Determinism: events at the same virtual time fire in the order they
// were scheduled (FIFO tie-break by sequence number), every domain's RNG
// is seeded from the world seed and the domain id, and barrier merges
// order cross-domain deliveries by (time, source node, send sequence).
// Two runs with the same seed produce identical traces at any worker
// count.
//
// Lookahead is a matrix, not a scalar: fabrics declare per-pair bounds
// with SetLookahead (DeclareLookahead sets a uniform default), and the
// scheduler derives the all-pairs minimum-delay matrix over relay paths
// (Floyd–Warshall, including round-trip self-cycles). Each window then
// gives every domain its own horizon — min over senders s of
// next-event(s) + dist[s][d] — so far-apart pairs run long windows and
// only genuinely close pairs barrier often. The window rule never
// changes event semantics, only barrier frequency.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sync"
	"sync/atomic"
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

// burst is the reusable per-domain buffer one instant's events drain
// into: ordinary events and tail events in separate seq-ordered queues,
// consumed front to back. Same-instant events scheduled while the burst
// executes append behind the cursor (their seq is larger than anything
// pending), so one pass replays the exact (ordinary-by-seq, then
// tail-by-seq) order the event heap used to produce — with the heap
// maintenance paid once per instant instead of once per event.
type burst struct {
	ord, tail         []*event
	ordHead, tailHead int
}

func (b *burst) reset() {
	b.ord = b.ord[:0]
	b.tail = b.tail[:0]
	b.ordHead, b.tailHead = 0, 0
}

// World coordinates a set of event domains through conservative
// synchronized windows. It is created implicitly by NewEngine; further
// domains are added with NewDomain (the fabric adds one per node).
type World struct {
	seed    int64
	domains []*Engine
	workers int

	// lookahead is the uniform default pair bound set by DeclareLookahead
	// (0 = none declared). Per-pair bounds from SetLookahead are kept in
	// edges; dist is the all-pairs minimum over relay paths, rebuilt
	// lazily (laDirty) at the next barrier.
	lookahead Duration
	edges     []laEdge
	dist      [][]Duration
	laDirty   bool

	// barriers run at requested window barriers (and before the first
	// window), single-threaded, with all domains paused (see OnBarrier).
	// The fabric uses them to merge and deliver cross-domain mailboxes.
	barriers []func()

	// barrierReq is the flag producers raise (RequestBarrier) when the
	// next barrier must run its hooks; it is atomic because sends happen
	// from parallel domain contexts.
	barrierReq atomic.Bool

	// statsHooks let higher layers (the rdma NIC model) contribute
	// counters to Stats() snapshots without sim importing them.
	statsHooks []func(*WorldStats)

	procs   atomic.Int64 // live processes across all domains
	stopped atomic.Bool
	running bool

	// actList is the active set: domains that may hold pending events.
	// A domain joins when an event is scheduled on it (at) and retires
	// when the window-start scan finds its wheel empty. Appends only
	// happen from single-threaded contexts (setup, barriers) or from the
	// domain's own execution (in which case it is already listed), so no
	// locking is needed even with parallel workers.
	actList []*Engine

	active []*Engine // per-window scratch: domains with runnable events
	next   []Time    // per-window scratch: each active domain's next-event time

	stats WorldStats
}

// laEdge is one declared directed lookahead bound between two domains.
type laEdge struct {
	src, dst int
	d        Duration
}

// laInf marks an undeclared pair: no bound, unreachable by any relay
// path. Kept far below the Duration ceiling so saturating sums cannot
// overflow inside the shortest-path relaxation.
const laInf = Duration(1) << 62

// WorldStats counts scheduler work. Windows is the number of executed
// time windows, Barriers the number of barrier hook sweeps, BarrierSkips
// the crossings whose sweep was elided because no producer requested it
// (Barriers+BarrierSkips is the number of crossings), IdleSkips the
// per-window count of domains outside the active set (empty wheel, no
// inbound staging — never touched by the window-start scan or the
// horizon computation), CrossDeliveries the number of messages merged
// across domain boundaries at barriers (intra-domain bypass deliveries
// are not counted), and WindowSpan/SpanWindows accumulate the length of
// every window whose horizon was bounded (MeanWindow reports the
// average).
//
// The burst/wheel counters attribute per-event scheduler cost:
// EventsExecuted is events fired, Bursts the number of drained instants
// (MeanBurstLen reports the amortization ratio), TimerFires the fired
// events that transited the wheel (the remainder were same-instant
// burst-direct schedules that never paid wheel maintenance), TimerStops
// the timers cancelled before firing (O(1) wheel unlinks), and
// WheelCascades the events re-filed to a finer wheel level when a
// domain's clock crossed a coarse slot boundary.
// The ConnCache* counters are contributed by OnStats hooks from the
// NIC connection-state model (QP context cache hits/misses/evictions in
// internal/rdma); they are zero when the model is disabled.
type WorldStats struct {
	Domains         int
	Windows         int64
	Barriers        int64
	BarrierSkips    int64
	IdleSkips       int64
	CrossDeliveries int64
	WindowSpan      Duration
	SpanWindows     int64

	EventsExecuted int64
	Bursts         int64
	TimerFires     int64
	TimerStops     int64
	WheelCascades  int64

	ConnCacheHits      int64
	ConnCacheMisses    int64
	ConnCacheEvictions int64

	// Verb-program counters, contributed by the simulated NIC's OnStats
	// hook: programs executed (CHASE/SCAN ops) and their loop iterations.
	// ProgramSteps-ProgramOps is the round trips the programs collapsed.
	ProgramOps   int64
	ProgramSteps int64
}

// MeanWindow returns the mean bounded-window length, or 0 if none ran.
func (s WorldStats) MeanWindow() Duration {
	if s.SpanWindows == 0 {
		return 0
	}
	return s.WindowSpan / Duration(s.SpanWindows)
}

// MeanBurstLen returns the mean number of events executed per drained
// instant, or 0 if nothing ran.
func (s WorldStats) MeanBurstLen() float64 {
	if s.Bursts == 0 {
		return 0
	}
	return float64(s.EventsExecuted) / float64(s.Bursts)
}

// NewDomain adds an event domain to the world and returns its Engine
// handle.
func (w *World) NewDomain() *Engine {
	e := &Engine{w: w, id: len(w.domains)}
	w.domains = append(w.domains, e)
	w.laDirty = true
	return e
}

// domainSeed decorrelates per-domain RNG streams (one SplitMix64 step).
func domainSeed(seed int64, id int) int64 {
	z := uint64(seed) + uint64(id)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SetWorkers sets how many OS goroutines execute domains within one
// window (<=1 = serial). Output is byte-identical at any setting.
func (w *World) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	w.workers = n
}

// Workers returns the configured intra-window worker count.
func (w *World) Workers() int { return w.workers }

// Domains returns the number of event domains in the world.
func (w *World) Domains() int { return len(w.domains) }

// DeclareLookahead sets the uniform default pair bound: no cross-domain
// message sent at time t can be delivered before t+d, for every domain
// pair. Multiple fabrics may declare; the minimum (clamped to >= 1ns)
// wins. Per-pair bounds tighter than real topology come from
// SetLookahead.
func (w *World) DeclareLookahead(d Duration) {
	if d < 1 {
		d = 1
	}
	if w.lookahead == 0 || d < w.lookahead {
		w.lookahead = d
	}
	w.laDirty = true
}

// SetLookahead declares a directed per-pair bound: no message sent by
// domain src at time t can arrive at dst before t+d. The minimum over
// all declarations for the pair — and over any relay path through other
// declared pairs — wins. Declaring src == dst is a no-op (intra-domain
// traffic needs no lookahead).
func (w *World) SetLookahead(src, dst *Engine, d Duration) {
	if src.w != w || dst.w != w {
		panic("sim: SetLookahead across worlds")
	}
	if src == dst {
		return
	}
	if d < 1 {
		d = 1
	}
	w.edges = append(w.edges, laEdge{src: src.id, dst: dst.id, d: d})
	w.laDirty = true
}

// RequestBarrier asks the next window barrier to run its hooks; a
// crossing nobody requested skips the sweep — O(hooks), each touching
// per-node state — and is counted in WorldStats.BarrierSkips. Fabrics
// call it when a node's outbox goes from empty to non-empty (the flush
// hook now has work) and when a node is added mid-run (lookahead must be
// re-declared). Safe from parallel domain contexts.
func (w *World) RequestBarrier() { w.barrierReq.Store(true) }

// Seed returns the world seed; per-domain and per-node RNG streams are
// derived from it.
func (w *World) Seed() int64 { return w.seed }

// Stats returns a snapshot of the scheduler telemetry counters,
// aggregating the domain-local burst/wheel counters. Call it between
// runs or at barriers (domains mutate their counters while executing).
func (w *World) Stats() WorldStats {
	s := w.stats
	s.Domains = len(w.domains)
	for _, d := range w.domains {
		s.EventsExecuted += d.statEvents
		s.Bursts += d.statBursts
		s.TimerFires += d.statFires
		s.TimerStops += d.statStops
		s.WheelCascades += d.wheel.cascades
	}
	for _, fn := range w.statsHooks {
		fn(&s)
	}
	return s
}

// OnStats registers fn to contribute counters to every Stats() snapshot
// (the rdma layer adds its NIC connection-cache counters this way).
// Hooks run on the snapshot copy, in registration order, from the same
// contexts in which Stats is safe to call.
func (w *World) OnStats(fn func(*WorldStats)) {
	w.statsHooks = append(w.statsHooks, fn)
}

// AddCrossDeliveries is called by fabrics at barriers to account
// messages merged across a domain boundary.
func (w *World) AddCrossDeliveries(n int) { w.stats.CrossDeliveries += int64(n) }

// rebuildDist recomputes the all-pairs minimum-delay matrix from the
// default bound and the declared edges: Floyd–Warshall over relay
// paths, with dist[i][i] becoming the minimum cycle through i (a domain
// can only be affected by its own past output after a full round trip).
// Undeclared, unreachable pairs stay at laInf — no bound at all.
func (w *World) rebuildDist() {
	n := len(w.domains)
	d := w.dist
	if len(d) != n {
		d = make([][]Duration, n)
		for i := range d {
			d[i] = make([]Duration, n)
		}
		w.dist = d
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && w.lookahead > 0 {
				d[i][j] = w.lookahead
			} else {
				d[i][j] = laInf
			}
		}
	}
	for _, e := range w.edges {
		if e.src < n && e.dst < n && e.d < d[e.src][e.dst] {
			d[e.src][e.dst] = e.d
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik >= laInf {
				continue
			}
			for j := 0; j < n; j++ {
				if dkj := d[k][j]; dkj < laInf && dik+dkj < d[i][j] {
					d[i][j] = dik + dkj
				}
			}
		}
	}
	w.laDirty = false
}

// OnBarrier registers fn to run at window barriers, while all domains
// are paused. Hooks run in registration order on the coordinating
// goroutine — before the first window of every Run/RunUntil, and after
// that only at crossings some producer asked for with RequestBarrier
// since the previous sweep. A hook that must see every crossing
// re-requests itself: w.OnBarrier(func() { ...; w.RequestBarrier() }).
// A hook that only consumes what producers stage (the fabric's flush)
// needs nothing more, provided every producer requests when it stages.
func (w *World) OnBarrier(fn func()) {
	w.barriers = append(w.barriers, fn)
}

// LiveProcs reports the number of processes that have started but not
// finished (parked processes included), across all domains.
func (w *World) LiveProcs() int { return int(w.procs.Load()) }

// run advances the whole world until no domain has an event at or before
// deadline, or Stop is called.
func (w *World) run(deadline Time) {
	if w.running {
		panic("sim: re-entrant Run")
	}
	w.running = true
	w.stopped.Store(false)
	defer func() { w.running = false }()

	single := len(w.domains) == 1
	first := true
	for {
		// Barrier: merge cross-domain mailboxes into destination heaps.
		// Runs before the window-start computation so flushed deliveries
		// participate in it, and before the first window so messages sent
		// from setup code are delivered (and lookahead declared there is
		// folded into the matrix before it is consulted). After that the
		// sweep is elided when no producer requested it — with every
		// outbox empty the hooks would only walk idle state.
		if req := w.barrierReq.Swap(false); first || req {
			for _, fn := range w.barriers {
				fn()
			}
			w.stats.Barriers++
		} else {
			w.stats.BarrierSkips++
		}
		first = false
		if w.stopped.Load() {
			break
		}
		if w.laDirty {
			w.rebuildDist()
		}
		// Window start W: the minimum next-event time over the active
		// set. Domains whose wheels drained empty retire here; they
		// rejoin via at() when something schedules on them. Idle domains
		// cost nothing — neither this scan nor the horizon computation
		// below ever touches them.
		start := Never
		prev := w.actList
		act := prev[:0]
		next := w.next[:0]
		for _, d := range prev {
			t := d.wheel.next()
			if t == Never {
				d.inActive = false
				continue
			}
			act = append(act, d)
			next = append(next, t)
			if t < start {
				start = t
			}
		}
		for i := len(act); i < len(prev); i++ {
			prev[i] = nil
		}
		w.actList = act
		w.next = next
		if start == Never || start > deadline {
			break
		}
		w.stats.IdleSkips += int64(len(w.domains) - len(act))
		// A single-domain world has no cross traffic, so the window
		// covers the whole run.
		if single {
			w.domains[0].runWindow(deadline)
			w.stats.Windows++
			if w.stopped.Load() {
				break
			}
			continue
		}
		// Per-domain horizon (inclusive limit): domain d may safely run
		// events at t < min over senders s of next(s) + dist[s][d],
		// because no message generated at or after next(s) can arrive at
		// d earlier than that. Only active senders constrain — an idle
		// domain's next is Never. Unreachable domains are unbounded (only
		// the deadline stops them).
		for _, d := range act {
			h := Never
			for j, s := range act {
				la := w.dist[s.id][d.id]
				if la >= laInf {
					continue
				}
				if c := next[j].Add(la); c < h {
					h = c
				}
			}
			lim := deadline
			if h != Never && h-1 < lim {
				lim = h - 1
			}
			d.limit = lim
		}
		// Telemetry: the window's effective length is set by the
		// earliest bounded horizon among domains that actually run.
		winEnd := Never
		for i, d := range act {
			if next[i] <= d.limit && d.limit < winEnd {
				winEnd = d.limit
			}
		}
		if winEnd != Never {
			w.stats.WindowSpan += Duration(winEnd - start + 1)
			w.stats.SpanWindows++
		}
		if w.workers <= 1 {
			for _, d := range act {
				d.runWindow(d.limit)
			}
		} else {
			w.runParallel()
		}
		w.stats.Windows++
		if w.stopped.Load() {
			break
		}
	}
	// Leave every clock at the deadline if it was reached (mirroring the
	// historical single-engine semantics).
	if deadline != Never {
		for _, d := range w.domains {
			if d.now < deadline {
				d.now = deadline
			}
		}
	}
}

// runParallel executes one window with up to w.workers goroutines, each
// claiming whole domains (each to its own horizon in Engine.limit). Domains
// never share state within a window, so this is race-free; determinism
// comes from the barrier merge order, not from scheduling.
func (w *World) runParallel() {
	act := w.active[:0]
	for i, d := range w.actList {
		if w.next[i] <= d.limit {
			act = append(act, d)
		}
	}
	w.active = act
	nw := w.workers
	if nw > len(act) {
		nw = len(act)
	}
	if nw <= 1 {
		for _, d := range act {
			d.runWindow(d.limit)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make(chan any, nw)
	work := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				select {
				case panics <- r:
				default:
				}
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(act) {
				return
			}
			act[i].runWindow(act[i].limit)
		}
	}
	wg.Add(nw)
	for i := 1; i < nw; i++ {
		go work()
	}
	work()
	wg.Wait()
	select {
	case r := <-panics:
		panic(r)
	default:
	}
}

// Engine is one event domain of a World: a discrete-event scheduler with
// its own clock, heap, and RNG stream. It is not safe for concurrent use
// from outside; all interaction must happen from this domain's events
// and processes, or from the single goroutine that calls Run (between
// runs and at barriers).
//
// Run/RunUntil may be called on any domain handle; they advance the
// whole world.
type Engine struct {
	w   *World
	id  int
	now Time

	seq   uint64
	rng   *rand.Rand // nil until Rand is first called
	limit Time       // this window's horizon, set by the world before dispatch

	// inActive marks membership in the world's active list. Set by at()
	// (always from a single-threaded context or this domain's own
	// execution — cross-domain scheduling only happens at barriers),
	// cleared by the window-start scan when the wheel drains empty.
	inActive bool

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

	// Domain-local scheduler telemetry, aggregated by World.Stats.
	statEvents int64 // events fired
	statBursts int64 // instants drained
	statFires  int64 // fired events that transited the wheel
	statStops  int64 // timers cancelled before firing
}

// NewEngine returns a fresh world's root domain, with its virtual clock
// at zero and an RNG seeded with seed.
func NewEngine(seed int64) *Engine {
	w := &World{seed: seed, workers: 1}
	return w.NewDomain()
}

// World returns the world this domain belongs to.
func (e *Engine) World() *World { return e.w }

// DomainID returns this domain's index in its world (root = 0).
func (e *Engine) DomainID() int { return e.id }

// Now returns the domain's current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the domain's deterministic RNG. It must only be used from
// this domain's simulation context (events and processes). The stream is
// seeded on first use — a source costs ≈10 µs and 5 KB, a point makes a
// dozen domains and almost none ever draws. Domain 0 keeps the stream of
// the world seed itself (so a single-domain world is stream-compatible
// with the historical engine); later domains get decorrelated
// SplitMix64-derived streams.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		seed := e.w.seed
		if e.id > 0 {
			seed = domainSeed(seed, e.id)
		}
		e.rng = rand.New(rand.NewSource(seed))
	}
	return e.rng
}

// Schedule runs fn after d has elapsed on the domain's clock. A negative
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
// scheduled (barrier flush vs intra-domain bypass).
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
	if !e.inActive {
		e.inActive = true
		e.w.actList = append(e.w.actList, e)
	}
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
// was still pending. It must be called from the owning domain's context.
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
		e.statStops++
		e.recycle(ev)
		return true
	case evBurst:
		// Already staged for the executing instant but not yet fired:
		// cancel in place; the burst loop skips and recycles it.
		ev.fn = nil
		ev.state = evIdle
		e.pendingN--
		e.statStops++
		return true
	}
	return false
}

// Stop halts the run loop after the current event completes. Pending
// events are left unfired. From parallel (multi-worker) domain context
// the halt is prompt but the exact cut point is scheduling-dependent;
// deterministic users call it from setup code between runs.
func (e *Engine) Stop() { e.w.stopped.Store(true) }

// Run processes events until every domain's heap is empty or Stop is
// called. It panics if called re-entrantly.
func (e *Engine) Run() { e.RunUntil(Never) }

// RunUntil processes events with timestamps <= deadline across all
// domains. Each domain's clock is left at the deadline if it is reached
// (and any events remain), or at the time of its last event otherwise.
func (e *Engine) RunUntil(deadline Time) { e.w.run(deadline) }

// runWindow executes this domain's events up to and including limit, one
// burst per instant: the wheel drains everything at the head instant
// into the burst buffers and the loop replays them — plus any
// same-instant events they schedule — in one pass, amortizing wheel
// maintenance and the horizon check across the burst.
func (e *Engine) runWindow(limit Time) {
	w := e.w
	b := &e.burst
	for {
		t := e.wheel.next()
		if t == Never || t > limit {
			return
		}
		if w.stopped.Load() {
			return
		}
		if e.wheel.collect(t, b) == 0 {
			continue // stale cached minimum (cancelled); rescan
		}
		e.now = t
		e.inBurst = true
		executed := 0
		for {
			if w.stopped.Load() {
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
				e.statFires++
			}
			fn := ev.fn
			e.recycle(ev) // before fn: events scheduled inside fn reuse it
			e.pendingN--
			fn()
			executed++
		}
		e.inBurst = false
		b.reset()
		e.statEvents += int64(executed)
		e.statBursts++
		if w.stopped.Load() {
			return
		}
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

// Pending reports the number of events scheduled in this domain.
func (e *Engine) Pending() int { return e.pendingN }

// LiveProcs reports the number of processes that have started but not
// finished (parked processes included) across the whole world. Useful
// for leak detection in tests.
func (e *Engine) LiveProcs() int { return e.w.LiveProcs() }

// ---------------------------------------------------------------------------
// Processes

// Proc is a blocking simulation process. Its methods must only be called
// from the process's own body.
//
// A process is a coroutine (iter.Pull): step is the coroutine's next and
// park its yield, so a resume is a direct switch from the domain loop's
// goroutine to the body's and back. Nothing is ever runnable on both
// sides at once, so no run queue, wakep or futex is involved, and exactly
// one goroutine calls next at a time: the domain loop, or the process
// whose event completed the future this one waits on.
//
// A process belongs to the domain it was spawned on, but a Future bound
// to another domain may resume it there: after Wait returns, the process
// runs in (and reads the clock of) the future's domain until its next
// suspension, on whichever worker goroutine runs that domain's window
// (windows hand domains over at barriers, which order the two resumes).
// Protocol code that blocks only on its own machine's connections never
// changes domains.
//
// A panic in the body comes out of step, i.e. out of the event that
// resumed the process, and so out of Run on the caller's goroutine like a
// panic in any other event. A process abandoned while parked (its world
// is dropped before it finishes) keeps its goroutine and stays counted by
// LiveProcs.
type Proc struct {
	cur   *Engine // domain currently executing (or about to execute) this proc
	name  string
	next  func() (struct{}, bool) // resumer -> body, until it parks or returns
	yield func(struct{}) bool     // body -> whoever called next; set on the first step
	dead  bool
}

// Go starts fn as a new process on this domain. fn begins executing at
// the current virtual time but only after the current event completes
// (it is scheduled like any other event).
func (e *Engine) Go(name string, fn func(p *Proc)) {
	p := &Proc{cur: e, name: name}
	e.w.procs.Add(1)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			p.dead = true
			p.cur.w.procs.Add(-1)
		}()
		p.yield = yield
		fn(p)
	})
	e.Schedule(0, p.step)
}

// step transfers control to the process until it parks or exits. It must
// run in the domain execution context recorded in p.cur.
func (p *Proc) step() {
	if p.dead {
		panic(fmt.Sprintf("sim: resuming dead proc %q", p.name))
	}
	p.next()
}

// resumeIn transfers control to the process within domain e's execution.
// The process observes e as its current domain until its next suspension.
func (p *Proc) resumeIn(e *Engine) {
	p.cur = e
	p.step()
}

// park returns control to whoever resumed the process; it resumes when
// something calls step (via a scheduled event or a future completion).
func (p *Proc) park() { p.yield(struct{}{}) }

// Engine returns the domain this process is currently executing in.
func (p *Proc) Engine() *Engine { return p.cur }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time of the process's current domain.
func (p *Proc) Now() Time { return p.cur.now }

// Sleep suspends the process for d of virtual time on its current
// domain's clock.
func (p *Proc) Sleep(d Duration) {
	p.cur.Schedule(d, p.step)
	p.park()
}

// Yield suspends the process until all other events scheduled for the
// current instant have run.
func (p *Proc) Yield() { p.Sleep(0) }

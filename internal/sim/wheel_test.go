package sim

import (
	"math/rand"
	"testing"
	"time"
)

// Property test: the wheel + burst scheduler must be observationally
// identical to the heap it replaced. The reference model below is the
// old scheduler's contract distilled — a pending set fired in strict
// (at, tail, seq) order, Stop removing a pending entry and reporting
// whether it was still pending — and the test drives both it and a real
// Engine through the same randomized seeded interleavings of
// At/AtTail/Schedule/Stop, including schedules and stops issued from
// inside firing callbacks (the burst-buffer redirect and the mid-burst
// cancel path). Firing order and every Stop return value must match
// exactly, for every seed.

// refEvent is one pending entry in the reference model.
type refEvent struct {
	at   Time
	tail bool
	seq  uint64
	id   int
}

// refModel replays the heap scheduler's semantics: fire the minimum by
// (at, tail, seq); Stop unlinks a pending entry. Extraction is O(n²) —
// it is a test oracle, not a scheduler.
type refModel struct {
	seq     uint64
	pending []refEvent
	now     Time
}

func (m *refModel) schedule(id int, at Time, tail bool) {
	m.pending = append(m.pending, refEvent{at: at, tail: tail, seq: m.seq, id: id})
	m.seq++
}

func (m *refModel) stop(id int) bool {
	for i := range m.pending {
		if m.pending[i].id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

func (m *refModel) run(fire func(id int)) {
	for len(m.pending) > 0 {
		best := 0
		for i := 1; i < len(m.pending); i++ {
			a, b := &m.pending[i], &m.pending[best]
			if a.at != b.at {
				if a.at < b.at {
					best = i
				}
			} else if a.tail != b.tail {
				if !a.tail {
					best = i
				}
			} else if a.seq < b.seq {
				best = i
			}
		}
		ev := m.pending[best]
		m.pending = append(m.pending[:best], m.pending[best+1:]...)
		m.now = ev.at
		fire(ev.id)
	}
}

// wheelAction is what an event's callback does when it fires, fixed per
// id (mod the table size) so both sides replay identical behavior.
type wheelAction struct {
	kind      int // 0 none, 1 spawn a child event, 2 stop an earlier timer
	delta     Duration
	tail      bool
	victimOff int
}

// wheelDriver is one side of the co-simulation: the shared callback
// logic bound to either the real Engine or the reference model.
type wheelDriver struct {
	schedule func(id int, at Time, tail bool)
	stopFn   func(id int) bool
	nowFn    func() Time
	actions  []wheelAction
	nextID   int
	log      []int
	stops    []bool
}

func (d *wheelDriver) onFire(id int) {
	d.log = append(d.log, id)
	a := d.actions[id%len(d.actions)]
	switch a.kind {
	case 1:
		child := d.nextID
		d.nextID++
		d.schedule(child, d.nowFn().Add(a.delta), a.tail)
	case 2:
		if v := id - a.victimOff; v >= 0 {
			d.stops = append(d.stops, d.stopFn(v))
		}
	}
}

// wheelDelta samples a scheduling offset spanning every wheel level —
// same-instant (0), level 0, mid levels, and past the 2^48 ns horizon
// into the overflow list.
func wheelDelta(rng *rand.Rand) Duration {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return Duration(rng.Intn(256))
	case 2:
		return Duration(rng.Intn(1 << 16))
	case 3:
		return Duration(rng.Intn(1 << 30))
	case 4:
		return time.Duration(rng.Intn(1<<20)) * time.Second // levels 4-5
	default:
		return Duration(1<<48 + rng.Int63n(1<<49)) // overflow horizon
	}
}

func TestWheelMatchesHeapReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 17, 99, 4242} {
		rng := rand.New(rand.NewSource(seed))

		actions := make([]wheelAction, 64)
		for i := range actions {
			switch k := rng.Intn(4); k {
			case 0, 1: // half the events do nothing
			case 2:
				actions[i] = wheelAction{kind: 1, delta: wheelDelta(rng), tail: rng.Intn(2) == 0}
			case 3:
				actions[i] = wheelAction{kind: 2, victimOff: 1 + rng.Intn(8)}
			}
		}

		e := NewEngine(seed)
		timers := make(map[int]Timer)
		eng := &wheelDriver{actions: actions}
		eng.nowFn = e.Now
		eng.schedule = func(id int, at Time, tail bool) {
			fn := func() { eng.onFire(id) }
			if tail {
				timers[id] = e.AtTail(at, fn)
			} else {
				timers[id] = e.At(at, fn)
			}
		}
		eng.stopFn = func(id int) bool {
			tm, ok := timers[id]
			return ok && tm.Stop()
		}

		model := &refModel{}
		mod := &wheelDriver{actions: actions}
		mod.nowFn = func() Time { return model.now }
		mod.schedule = model.schedule
		mod.stopFn = model.stop

		// Spawned children draw ids below the external namespace; external
		// schedules draw from extID so the two never collide.
		extID := 1 << 20
		scheduleBoth := func(at Time, tail bool) {
			eng.schedule(extID, at, tail)
			mod.schedule(extID, at, tail)
			extID++
		}
		stopBoth := func(id int) {
			eng.stops = append(eng.stops, eng.stopFn(id))
			mod.stops = append(mod.stops, mod.stopFn(id))
		}

		for round := 0; round < 8; round++ {
			if e.Now() != model.now {
				t.Fatalf("seed %d round %d: clocks diverged: engine %d model %d", seed, round, e.Now(), model.now)
			}
			base := e.Now()
			for i := 0; i < 24; i++ {
				scheduleBoth(base.Add(wheelDelta(rng)), rng.Intn(4) == 0)
			}
			// External stops: some from this round (pending → true), some
			// from earlier rounds (fired or stopped → false), some via the
			// stale handle of a long-gone id (generation guard → false).
			for i := 0; i < 6; i++ {
				stopBoth(1<<20 + rng.Intn(extID-1<<20))
			}
			e.Run()
			model.run(mod.onFire)
		}

		if len(eng.log) == 0 {
			t.Fatalf("seed %d: no events fired", seed)
		}
		if len(eng.log) != len(mod.log) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(eng.log), len(mod.log))
		}
		for i := range eng.log {
			if eng.log[i] != mod.log[i] {
				t.Fatalf("seed %d: firing order diverges at %d: engine id %d, reference id %d", seed, i, eng.log[i], mod.log[i])
			}
		}
		if len(eng.stops) != len(mod.stops) {
			t.Fatalf("seed %d: %d engine Stop calls vs %d reference", seed, len(eng.stops), len(mod.stops))
		}
		for i := range eng.stops {
			if eng.stops[i] != mod.stops[i] {
				t.Fatalf("seed %d: Stop result %d diverges: engine %v, reference %v", seed, i, eng.stops[i], mod.stops[i])
			}
		}
		if eng.nextID != mod.nextID {
			t.Fatalf("seed %d: spawned %d children, reference spawned %d", seed, eng.nextID, mod.nextID)
		}
		if e.Pending() != 0 || len(model.pending) != 0 {
			t.Fatalf("seed %d: leftover events: engine %d, reference %d", seed, e.Pending(), len(model.pending))
		}
	}
}

// TestSameInstantBatchOrder: however a batch of events for one instant
// reached its level-0 slot — filed there directly (the slot list is then
// exactly descending in seq), through one cascade (ascending), through two
// (descending again), or part cascaded and part filed later (neither) —
// it fires in ascending seq, ordinary events before tail events, exactly
// as the heap reference does. ids are handed out in scheduling order, so
// ascending id is ascending seq.
func TestSameInstantBatchOrder(t *testing.T) {
	// at is the batch's instant and hop, when non-zero, an earlier instant
	// in the same level-2 slot but another level-1 slot: stopping there
	// cascades the batch from level 2 to level 1, and reaching at cascades
	// it again. late schedules the second half of the batch from hop's
	// callback, so that half cascades once and the first half twice.
	for _, shape := range []struct {
		name     string
		at, hop  Time
		late     bool
		cascades func(n int) int64 // wheel re-filings the shape must cause
	}{
		{"direct", 100, 0, false, func(int) int64 { return 0 }},
		{"one-cascade", 5000, 0, false, func(n int) int64 { return int64(n) }},
		{"two-cascades", 1<<16 + 0x1170, 1<<16 + 10, false, func(n int) int64 { return int64(2*n) + 1 }},
		{"mixed", 1<<16 + 0x1170, 1<<16 + 10, true, func(n int) int64 { return int64(2*(n/2)+(n-n/2)) + 1 }},
	} {
		for _, n := range []int{1, 33, 4096} {
			const hopID = -1
			e, model := NewEngine(1), &refModel{}
			var got, want []int
			var engSchedule, modSchedule func(id int)
			batch := func(schedule func(id int), from, to int) {
				for id := from; id < to; id++ {
					schedule(id)
				}
			}
			first := n
			if shape.late {
				first = n / 2
			}
			engSchedule = func(id int) {
				at, fn := shape.at, func() { got = append(got, id) }
				if id == hopID {
					at, fn = shape.hop, func() { got = append(got, id); batch(engSchedule, first, n) }
				}
				if id%3 == 2 {
					e.AtTail(at, fn)
				} else {
					e.At(at, fn)
				}
			}
			modSchedule = func(id int) {
				at := shape.at
				if id == hopID {
					at = shape.hop
				}
				model.schedule(id, at, id%3 == 2)
			}
			for _, schedule := range []func(int){engSchedule, modSchedule} {
				if shape.hop != 0 {
					schedule(hopID)
				}
				batch(schedule, 0, first)
			}
			e.Run()
			model.run(func(id int) {
				want = append(want, id)
				if id == hopID {
					batch(modSchedule, first, n)
				}
			})

			if c := e.wheel.cascades; c != shape.cascades(n) {
				t.Fatalf("%s n=%d: %d cascades, want %d — the shape does not take the path it names", shape.name, n, c, shape.cascades(n))
			}
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: fired %d events, reference fired %d", shape.name, n, len(got), len(want))
			}
			prev, tails := hopID, false
			for i, id := range got {
				if id != want[i] {
					t.Fatalf("%s n=%d: firing order diverges at %d: engine id %d, reference id %d", shape.name, n, i, id, want[i])
				}
				if id == hopID {
					continue
				}
				if tail := id%3 == 2; tail != tails {
					if !tail {
						t.Fatalf("%s n=%d: ordinary event %d fired after a tail event", shape.name, n, id)
					}
					prev, tails = hopID, true
				}
				if id <= prev {
					t.Fatalf("%s n=%d: event %d fired after %d", shape.name, n, id, prev)
				}
				prev = id
			}
		}
	}
}

package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// Hierarchical timer wheel: the pending-event structure behind every
// Engine. It replaces the former container/heap event heap with O(1)
// schedule and cancel for the near-future timers
// that dominate the simulation — propagation delays a few microseconds
// out, and retransmission guards that are almost always stopped before
// they fire — at the cost of an occasional lazy cascade when the clock
// crosses a coarse slot boundary.
//
// Geometry: wheelLevels levels of wheelSlots slots each. A level-l slot
// spans 2^(wheelLevelBits*l) nanoseconds, so level 0 slots are exact
// instants (1 ns), level 1 slots span 256 ns, level 2 spans 65.5 µs, and
// the whole wheel reaches 2^48 ns ≈ 78 virtual hours; anything farther
// parks on an unsorted overflow list that is re-examined when the clock
// crosses a top-level boundary (in practice: never).
//
// Placement invariant: every pending event is filed at the level of the
// highest bit in which its instant differs from the wheel clock cur —
// equivalently, the finest level at which the event and cur occupy
// different slots. advance restores the invariant when cur moves: the
// slots that newly contain cur at each level are cascaded, re-filing
// their members one level (or more) finer. The invariant is what makes
// next exact and cheap: levels are totally ordered (every level-l event
// precedes every level-(l+1) event), so the earliest pending instant is
// the first occupied slot of the finest occupied level, found by a few
// occupancy-bitmap scans with no mutation (next only reads; collect
// advances the clock and cascades).
//
// Ordering is unchanged from the heap: collect hands RunUntil one exact
// instant's events, which it replays in the canonical (ordinary-by-seq,
// then tail-by-seq) order; across instants the wheel fires in time
// order. Timer.Stop keeps its generation-counted semantics: a wheel
// removal is an O(1) list unlink instead of an O(log n) heap sift.
type wheel struct {
	cur   Time // wheel clock: the instant last advanced to (<= the engine's now)
	count int  // events filed in slots + overflow

	slots [wheelLevels][wheelSlots]*event
	occ   [wheelLevels][wheelWords]uint64

	// overflow holds events beyond the wheel horizon, unsorted (scanned
	// linearly by next; essentially always empty).
	overflow []*event

	// nextAt caches the earliest pending instant: kept in lockstep by
	// insert (min), invalidated when the cached minimum is removed or
	// collected, so the common repeat lookups are free.
	nextAt    Time
	nextValid bool

	// cascades counts events re-filed to a finer level by advance
	// (scheduler telemetry: wheel_cascades).
	cascades int64
}

const (
	wheelLevelBits = 8
	wheelSlots     = 1 << wheelLevelBits
	wheelSlotMask  = wheelSlots - 1
	wheelLevels    = 6
	wheelWords     = wheelSlots / 64
)

// insert files ev (whose at must be >= the engine's now, hence >=
// cur) at the level of the highest bit where it differs from cur.
func (w *wheel) insert(ev *event) {
	d := uint64(ev.at) ^ uint64(w.cur)
	lvl := 0
	if d != 0 {
		lvl = (63 - bits.LeadingZeros64(d)) / wheelLevelBits
	}
	w.count++
	if w.nextValid && ev.at < w.nextAt {
		w.nextAt = ev.at
	}
	if lvl >= wheelLevels {
		ev.state = evOverflow
		w.overflow = append(w.overflow, ev)
		return
	}
	s := int(uint64(ev.at)>>(uint(lvl)*wheelLevelBits)) & wheelSlotMask
	ev.level = uint8(lvl)
	ev.slot = uint8(s)
	ev.state = evWheel
	head := w.slots[lvl][s]
	ev.prev = nil
	ev.next = head
	if head != nil {
		head.prev = ev
	}
	w.slots[lvl][s] = ev
	w.occ[lvl][s>>6] |= 1 << (uint(s) & 63)
}

// remove unlinks a pending event (the Timer.Stop path): O(1) for wheel
// residents, a linear scan of the (essentially always empty) overflow
// list otherwise.
func (w *wheel) remove(ev *event) {
	if ev.state == evOverflow {
		for i, o := range w.overflow {
			if o == ev {
				last := len(w.overflow) - 1
				w.overflow[i] = w.overflow[last]
				w.overflow[last] = nil
				w.overflow = w.overflow[:last]
				break
			}
		}
	} else {
		if ev.prev != nil {
			ev.prev.next = ev.next
		} else {
			w.slots[ev.level][ev.slot] = ev.next
			if ev.next == nil {
				w.occ[ev.level][ev.slot>>6] &^= 1 << (uint(ev.slot) & 63)
			}
		}
		if ev.next != nil {
			ev.next.prev = ev.prev
		}
	}
	ev.prev, ev.next = nil, nil
	ev.state = evIdle
	w.count--
	if w.nextValid && ev.at == w.nextAt {
		w.nextValid = false // the cached minimum may just have left
	}
}

// next returns the earliest pending instant, or Never. It never mutates
// slot contents, so RunUntil can look past its deadline without advancing
// the wheel clock beyond it.
func (w *wheel) next() Time {
	if !w.nextValid {
		w.nextAt = w.scan()
		w.nextValid = true
	}
	return w.nextAt
}

func (w *wheel) scan() Time {
	cur := uint64(w.cur)
	// Level 0 slots are exact instants within the current 256 ns lap.
	if s, ok := w.firstOcc(0, int(cur)&wheelSlotMask); ok {
		return Time(cur&^wheelSlotMask | uint64(s))
	}
	// Coarser levels: the first occupied slot of the finest occupied
	// level bounds every coarser level, so its members hold the minimum;
	// the slot spans more than one instant, so scan it for the earliest.
	for l := 1; l < wheelLevels; l++ {
		if s, ok := w.firstOcc(l, int(cur>>(uint(l)*wheelLevelBits))&wheelSlotMask); ok {
			min := Never
			for ev := w.slots[l][s]; ev != nil; ev = ev.next {
				if ev.at < min {
					min = ev.at
				}
			}
			return min
		}
	}
	min := Never
	for _, ev := range w.overflow {
		if ev.at < min {
			min = ev.at
		}
	}
	return min
}

// firstOcc finds the first occupied slot index >= from at level l.
func (w *wheel) firstOcc(l, from int) (int, bool) {
	wi := from >> 6
	word := w.occ[l][wi] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word), true
		}
		wi++
		if wi >= wheelWords {
			return 0, false
		}
		word = w.occ[l][wi]
	}
}

// advance moves the wheel clock to t, restoring the placement invariant:
// at every level the slot that newly contains t is cascaded, re-filing
// its members finer relative to the new clock. Only called from collect,
// when the engine's clock moves to t: no event before t can be scheduled
// any more, and t is the next pending instant, so no occupied slot
// between the old and new clock is skipped.
func (w *wheel) advance(t Time) {
	if t == w.cur {
		return
	}
	topCrossed := uint64(w.cur)>>(wheelLevels*wheelLevelBits) != uint64(t)>>(wheelLevels*wheelLevelBits)
	w.cur = t
	for l := wheelLevels - 1; l >= 1; l-- {
		s := int(uint64(t)>>(uint(l)*wheelLevelBits)) & wheelSlotMask
		ev := w.slots[l][s]
		if ev == nil {
			continue
		}
		w.slots[l][s] = nil
		w.occ[l][s>>6] &^= 1 << (uint(s) & 63)
		for ev != nil {
			nx := ev.next
			ev.prev, ev.next = nil, nil
			w.count-- // insert re-counts
			w.insert(ev)
			w.cascades++
			ev = nx
		}
	}
	if topCrossed && len(w.overflow) > 0 {
		// A top-level boundary crossing may bring overflow events within
		// the horizon. In-place filter: insert never re-appends here,
		// because only events that now fit in the wheel are re-filed.
		kept := w.overflow[:0]
		for _, ev := range w.overflow {
			d := uint64(ev.at) ^ uint64(t)
			if d != 0 && (63-bits.LeadingZeros64(d))/wheelLevelBits >= wheelLevels {
				kept = append(kept, ev)
				continue
			}
			w.count--
			w.insert(ev)
			w.cascades++
		}
		for i := len(kept); i < len(w.overflow); i++ {
			w.overflow[i] = nil
		}
		w.overflow = kept
	}
}

// collect advances the clock to t and drains every event at exactly
// instant t into the burst buffers, marked evBurst and partitioned into
// the ordinary and tail queues in ascending seq order. Returns the
// number collected.
func (w *wheel) collect(t Time, b *burst) int {
	w.advance(t)
	w.nextValid = false
	s := int(uint64(t)) & wheelSlotMask
	ev := w.slots[0][s]
	if ev == nil {
		return 0
	}
	w.slots[0][s] = nil
	w.occ[0][s>>6] &^= 1 << (uint(s) & 63)
	n := 0
	for ev != nil {
		nx := ev.next
		ev.prev, ev.next = nil, nil
		ev.state = evBurst
		ev.fromWheel = true
		if ev.tail {
			b.tail = append(b.tail, ev)
		} else {
			b.ord = append(b.ord, ev)
		}
		n++
		ev = nx
	}
	w.count -= n
	orderBySeq(b.ord)
	orderBySeq(b.tail)
	return n
}

// orderBySeq sorts one instant's events, gathered from a slot list head
// first, into ascending seq. Slot lists are push-front, so a batch filed
// straight into its level-0 slot arrives exactly descending; advance
// re-files a coarser slot's list head first, which reverses it, so a batch
// that came down through one cascade arrives exactly ascending (through
// two, descending again). One pass tells the two apart and either costs
// O(n), however many events share the instant. Only a batch of mixed
// history — part cascaded, part filed since — is neither and pays a real
// sort. seq is unique within an engine, so the order does not depend on
// which case ran.
func orderBySeq(evs []*event) {
	descents := 0 // adjacent pairs out of ascending order
	for i := 1; i < len(evs); i++ {
		if evs[i].seq < evs[i-1].seq {
			descents++
		}
	}
	switch descents {
	case 0:
	case len(evs) - 1:
		slices.Reverse(evs)
	default:
		slices.SortFunc(evs, func(a, b *event) int { return cmp.Compare(a.seq, b.seq) })
	}
}

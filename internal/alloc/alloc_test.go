package alloc

import (
	"errors"
	"iter"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"prism/internal/memory"
)

func TestFreeListFIFO(t *testing.T) {
	f := NewFreeList(1, 512, 7, nil, 0)
	for _, a := range []memory.Addr{0x1000, 0x2000, 0x3000} {
		f.Post(a)
	}
	for _, want := range []memory.Addr{0x1000, 0x2000, 0x3000} {
		got, err := f.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("popped %#x, want %#x", got, want)
		}
	}
	if _, err := f.Pop(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty pop: %v", err)
	}
}

func TestRecycleNotImmediatelyAvailable(t *testing.T) {
	f := NewFreeList(1, 512, 7, nil, 0)
	f.Recycle(0x1000)
	if f.Len() != 0 {
		t.Fatal("recycled buffer available before quiesce")
	}
	if f.Pending() != 1 {
		t.Fatalf("pending = %d", f.Pending())
	}
	f.repost(1)
	if f.Len() != 1 || f.Pending() != 0 {
		t.Fatal("repost did not post")
	}
}

// newCarvingList returns a list of bufSize-byte buffers capped at limit
// over a fresh space.
func newCarvingList(t *testing.T, bufSize uint64, limit int) (*FreeList, *memory.Space) {
	t.Helper()
	space := memory.NewSpace()
	r, err := space.Register(64)
	if err != nil {
		t.Fatal(err)
	}
	return NewFreeList(1, bufSize, r.Key, space, limit), space
}

func registered(space *memory.Space) (n uint64) {
	for _, r := range space.Regions() {
		n += r.Len
	}
	return n
}

// RegisterArray cuts an array into contiguous regions of whole elements,
// each as long as a slab allows, so element i sits at base + i*stride and
// passes the NIC's bounds check at exactly stride bytes, while an access
// across a region boundary NAKs — for strides that divide 64, that do not,
// and that exceed a slab.
func TestRegisterArrayWholeElementRegions(t *testing.T) {
	gcd := func(a, b uint64) uint64 {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < 120; c++ {
		var stride uint64
		switch c % 4 {
		case 0:
			stride = 8 << rng.Intn(4) // 8..64
		case 1:
			stride = uint64(1 + rng.Intn(600))
		case 2:
			stride = uint64(SlabBytes/64 + rng.Intn(SlabBytes)) // 1 KiB..65 KiB
		case 3:
			stride = uint64(SlabBytes + 1 + rng.Intn(2*SlabBytes))
		}
		n := uint64(1 + rng.Intn(int(min(20000, (4<<20)/stride+2))))
		space := memory.NewSpace()
		first, err := space.Register(100)
		if err != nil {
			t.Fatal(err)
		}
		var key memory.RKey // half the arrays under a fresh key, half under first's
		if c%2 == 1 {
			key = first.Key
		}
		gotKey, base, err := RegisterArray(space, key, n, stride)
		if err != nil {
			t.Fatalf("stride %d, n %d: %v", stride, n, err)
		}
		if key != 0 && gotKey != key || key == 0 && gotKey == first.Key {
			t.Fatalf("stride %d: registered under key %d, asked for %d", stride, gotKey, key)
		}
		run := stride * 64 / gcd(stride, 64) // the shortest 64-byte multiple of whole elements
		regions := space.Regions()[1:]
		if regions[0].Base != base {
			t.Fatalf("stride %d: base %#x is not the first region's %#x", stride, base, regions[0].Base)
		}
		var total uint64
		for j, r := range regions {
			total += r.Len
			last := j == len(regions)-1
			switch {
			case r.Key != gotKey:
				t.Fatalf("stride %d: region %d under key %d", stride, j, r.Key)
			case j > 0 && r.Base != regions[j-1].End():
				t.Fatalf("stride %d: region %d at %#x, not where region %d ends (%#x)", stride, j, r.Base, j-1, regions[j-1].End())
			case r.Len%stride != 0:
				t.Fatalf("stride %d: region %d of %d bytes splits an element", stride, j, r.Len)
			case r.Len > max(SlabBytes, run):
				t.Fatalf("stride %d: region %d of %d bytes exceeds a slab", stride, j, r.Len)
			case !last && (r.Len%64 != 0 || r.Len+run <= SlabBytes):
				t.Fatalf("stride %d: inner region %d of %d bytes is not the longest 64-byte multiple in a slab", stride, j, r.Len)
			}
			if !last {
				if _, err := space.Check(gotKey, r.End()-1, 2); !errors.Is(err, memory.ErrOutOfBounds) {
					t.Fatalf("stride %d: an access across the end of region %d: %v, want ErrOutOfBounds", stride, j, err)
				}
			}
		}
		if total != n*stride {
			t.Fatalf("stride %d: %d bytes registered for %d elements", stride, total, n)
		}
		for i := uint64(0); i < n; i++ {
			if _, err := space.Check(gotKey, base+memory.Addr(i*stride), stride); err != nil {
				t.Fatalf("stride %d: element %d of %d: %v", stride, i, n, err)
			}
		}
	}
}

// A list registers nothing until the first Pop, then one slab at a time,
// and the slab that reaches the cap is clipped to it.
func TestCarveOnDemandInSlabs(t *testing.T) {
	const bufSize = 1024
	perSlab := int(SlabBytes / bufSize)
	f, space := newCarvingList(t, bufSize, 2*perSlab+10)
	base := registered(space)
	if f.Len() != 0 || len(f.Slabs()) != 0 {
		t.Fatal("list provisioned before the first Pop")
	}
	seen := make(map[memory.Addr]bool)
	for i := 0; i < 2*perSlab+10; i++ {
		a, err := f.Pop()
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if seen[a] {
			t.Fatalf("pop %d: buffer %#x handed out twice", i, a)
		}
		seen[a] = true
		if err := space.Write(f.Key, a, make([]byte, bufSize)); err != nil {
			t.Fatalf("pop %d: buffer %#x not registered under the list's key: %v", i, a, err)
		}
		wantSlabs := i/perSlab + 1
		if len(f.Slabs()) != wantSlabs {
			t.Fatalf("after %d pops: %d slabs, want %d", i+1, len(f.Slabs()), wantSlabs)
		}
	}
	if got, want := registered(space)-base, uint64(2*perSlab+10)*bufSize; got != want {
		t.Fatalf("registered %d bytes, want %d (two slabs and a clipped third)", got, want)
	}
	if s := f.Slabs(); s[0].Count != perSlab || s[2].Count != 10 {
		t.Fatalf("slab counts %+v", s)
	}
}

// RNR is pinned at the cap: the cap-th outstanding buffer is the last, a
// returned buffer is handed out again, and nothing more is ever carved.
func TestCapPinsErrEmpty(t *testing.T) {
	for _, tc := range []struct {
		bufSize uint64
		limit   int
	}{{64, 4}, {1024, 8}, {1024, 1024}, {1024, 1500}, {4 << 20, 3}} {
		f, space := newCarvingList(t, tc.bufSize, tc.limit)
		var last memory.Addr
		for i := 0; i < tc.limit; i++ {
			a, err := f.Pop()
			if err != nil {
				t.Fatalf("%+v: pop %d of %d: %v", tc, i+1, tc.limit, err)
			}
			last = a
		}
		if _, err := f.Pop(); !errors.Is(err, ErrEmpty) {
			t.Fatalf("%+v: pop beyond the cap: %v", tc, err)
		}
		before := registered(space)
		q := NewQuiescer()
		f.Recycle(last)
		f.FlushWhenQuiet(q)
		if a, err := f.Pop(); err != nil || a != last {
			t.Fatalf("%+v: recycled buffer: %#x %v, want %#x", tc, a, err, last)
		}
		if _, err := f.Pop(); !errors.Is(err, ErrEmpty) {
			t.Fatalf("%+v: pop beyond the cap after a recycle: %v", tc, err)
		}
		if registered(space) != before {
			t.Fatalf("%+v: list carved beyond its cap", tc)
		}
	}
}

// Two clones of one list over two forks of its space carve the same
// addresses, and neither touches the sealed parent or the original.
func TestCloneCarvesDeterministicallyInFork(t *testing.T) {
	f, space := newCarvingList(t, 512, 5000)
	for i := 0; i < 100; i++ { // leave a partly used slab behind
		if _, err := f.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	snap := space.Snapshot()
	parentRegions, parentLen, parentSlabs := len(space.Regions()), f.Len(), len(f.Slabs())
	var runs [2][]memory.Addr
	for i := range runs {
		fork := snap.Fork()
		c := f.Clone(fork)
		for j := 0; j < 4900; j++ {
			a, err := c.Pop()
			if err != nil {
				t.Fatalf("clone %d pop %d: %v", i, j, err)
			}
			if err := fork.Write(c.Key, a, []byte{1}); err != nil {
				t.Fatalf("clone %d: %#x not writable in its fork: %v", i, a, err)
			}
			runs[i] = append(runs[i], a)
		}
		if _, err := c.Pop(); !errors.Is(err, ErrEmpty) {
			t.Fatalf("clone %d: cap not inherited: %v", i, err)
		}
	}
	for j := range runs[0] {
		if runs[0][j] != runs[1][j] {
			t.Fatalf("pop %d: clones diverge: %#x vs %#x", j, runs[0][j], runs[1][j])
		}
	}
	if len(space.Regions()) != parentRegions || f.Len() != parentLen || len(f.Slabs()) != parentSlabs {
		t.Fatal("a clone mutated the sealed parent space or the original list")
	}
}

// A seeded random walk of Pop, Recycle, FlushWhenQuiet and Clone over the
// stores' buffer sizes and caps small enough to be reached: no buffer is
// out twice, the cap holds and is the only reason for ErrEmpty, two clones
// of one list carve the same addresses in their forks, and what the list
// has registered stays within one SlabBytes of the most it ever had out.
func TestRandomWalkHoldsCapAndFootprint(t *testing.T) {
	sizes := SizeClasses(64, 4096+16)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bufSize, limit := sizes[rng.Intn(len(sizes))], 1+rng.Intn(3000)
		f, space := newCarvingList(t, bufSize, limit)
		base := registered(space)
		q := NewQuiescer()
		var out, pending []memory.Addr
		held := make(map[memory.Addr]bool) // out or pending: not the list's to hand out
		peak := 0
		pop := func(f *FreeList) (memory.Addr, bool) {
			a, err := f.Pop()
			if err != nil {
				carved := 0
				for _, s := range f.Slabs() {
					carved += s.Count
				}
				if !errors.Is(err, ErrEmpty) || carved != limit || f.Len() != 0 {
					t.Fatalf("seed %d: pop failed with %d of %d carved and %d free: %v", seed, carved, limit, f.Len(), err)
				}
				return 0, false
			}
			return a, true
		}
		take := func(a memory.Addr) {
			if held[a] {
				t.Fatalf("seed %d: buffer %#x handed out twice", seed, a)
			}
			held[a] = true
			out = append(out, a)
			if len(held) > limit {
				t.Fatalf("seed %d: %d buffers out of a list capped at %d", seed, len(held), limit)
			}
			peak = max(peak, len(held))
		}
		cloneAt := rng.Intn(6000) // once: a fork cannot be snapshotted again
		for step := 0; step < 6000; step++ {
			switch r := rng.Intn(100); {
			case step == cloneAt:
				snap := space.Snapshot()
				forks := [2]*memory.Space{snap.Fork(), snap.Fork()}
				clones := [2]*FreeList{f.Clone(forks[0]), f.Clone(forks[1])}
				for n := rng.Intn(400); n > 0; n-- {
					a, ok := pop(clones[0])
					if b, _ := pop(clones[1]); b != a {
						t.Fatalf("seed %d: clones of one list popped %#x and %#x", seed, a, b)
					}
					if ok {
						take(a)
					}
				}
				f, space = clones[0], forks[0] // the walk goes on in a fork
			case r < 55:
				if a, ok := pop(f); ok {
					take(a)
					if err := space.Write(f.Key, a, []byte{1}); err != nil {
						t.Fatalf("seed %d: buffer %#x is not registered: %v", seed, a, err)
					}
				}
			case r < 85 && len(out) > 0:
				i := rng.Intn(len(out))
				f.Recycle(out[i])
				pending = append(pending, out[i])
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
			default:
				f.FlushWhenQuiet(q) // idle: reposted at once
				for _, a := range pending {
					delete(held, a)
				}
				pending = pending[:0]
			}
			peakBytes, got := uint64(peak)*bufSize, registered(space)-base
			if got > peakBytes+SlabBytes {
				t.Fatalf("seed %d step %d: %d bytes registered for %d out at the most: over one slab of slack", seed, step, got, peakBytes)
			}
		}
	}
}

// The queue is FIFO across ring growth and wrap-around, and the steady
// Pop/Recycle/FlushWhenQuiet cycle does not allocate.
func TestRingFIFOAndSteadyStateAllocs(t *testing.T) {
	f := NewFreeList(1, 64, 7, nil, 0)
	next, want := memory.Addr(0x1000), memory.Addr(0x1000)
	for round := 0; round < 50; round++ {
		for i := 0; i < 7+round; i++ { // net growth: forces regrowth mid-wrap
			f.Post(next)
			next += 64
		}
		for i := 0; i < 5; i++ {
			a, err := f.Pop()
			if err != nil || a != want {
				t.Fatalf("round %d: popped %#x (%v), want %#x", round, a, err, want)
			}
			want += 64
		}
	}
	if tracked := slices.Collect(f.Tracked()); len(tracked) != f.Len() || tracked[0] != want {
		t.Fatalf("Tracked visits %d buffers from %#x, want the %d available from %#x", len(tracked), tracked[0], f.Len(), want)
	}
	q := NewQuiescer()
	cycle := func() {
		a, _ := f.Pop()
		f.Recycle(a)
		f.FlushWhenQuiet(q)
	}
	cycle()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("Pop+Recycle+FlushWhenQuiet allocates %.1f/op", avg)
	}
}

// A flush waits for the operations in flight when it was requested, and
// later flushes of the same list repost in order.
func TestFlushWhenQuietWaitsAndKeepsOrder(t *testing.T) {
	f := NewFreeList(1, 64, 7, nil, 0)
	q := NewQuiescer()
	op := q.OpStart()
	f.Recycle(0x1000)
	f.Recycle(0x2000)
	f.FlushWhenQuiet(q)
	f.Recycle(0x3000)
	if f.Len() != 0 || f.Pending() != 3 {
		t.Fatalf("before drain: len %d pending %d", f.Len(), f.Pending())
	}
	op2 := q.OpStart()
	f.FlushWhenQuiet(q)
	q.OpEnd(op)
	if f.Len() != 2 || f.Pending() != 1 {
		t.Fatalf("after first drain: len %d pending %d", f.Len(), f.Pending())
	}
	q.OpEnd(op2)
	for _, want := range []memory.Addr{0x1000, 0x2000, 0x3000} {
		if a, err := f.Pop(); err != nil || a != want {
			t.Fatalf("popped %#x (%v), want %#x", a, err, want)
		}
	}
}

func TestQuiescerImmediateWhenIdle(t *testing.T) {
	q := NewQuiescer()
	ran := false
	q.AfterQuiesce(func() { ran = true })
	if !ran {
		t.Fatal("idle quiescer delayed flush")
	}
}

func TestQuiescerWaitsForInFlight(t *testing.T) {
	q := NewQuiescer()
	a := q.OpStart()
	b := q.OpStart()
	ran := false
	q.AfterQuiesce(func() { ran = true })

	// A later op must not delay the flush.
	c := q.OpStart()

	q.OpEnd(a)
	if ran {
		t.Fatal("flush ran with op b still in flight")
	}
	q.OpEnd(b)
	if !ran {
		t.Fatal("flush did not run after pre-flush ops drained")
	}
	q.OpEnd(c)
}

func TestQuiescerLaterOpDoesNotBlock(t *testing.T) {
	q := NewQuiescer()
	a := q.OpStart()
	ran := false
	q.AfterQuiesce(func() { ran = true })
	q.OpStart() // never ends
	q.OpEnd(a)
	if !ran {
		t.Fatal("flush blocked by op that started after it")
	}
}

func TestQuiescerMultipleWaitsOrdered(t *testing.T) {
	q := NewQuiescer()
	a := q.OpStart()
	var order []int
	q.AfterQuiesce(func() { order = append(order, 1) })
	b := q.OpStart()
	q.AfterQuiesce(func() { order = append(order, 2) })
	q.OpEnd(a)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("after first drain: %v", order)
	}
	q.OpEnd(b)
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("after second drain: %v", order)
	}
}

func TestQuiescerDoubleEndPanics(t *testing.T) {
	q := NewQuiescer()
	id := q.OpStart()
	q.OpEnd(id)
	defer func() {
		if recover() == nil {
			t.Fatal("double OpEnd did not panic")
		}
	}()
	q.OpEnd(id)
}

func TestSizeClasses(t *testing.T) {
	for _, tc := range []struct {
		min, max uint64
		want     []uint64
	}{
		{64, 4096, []uint64{64, 128, 256, 512, 1024, 2048, 4096}},
		// The stores' ladders: the paper's 512-byte object and the GET
		// workloads' 128-byte one, each behind a 16-byte entry header.
		{64, 528, []uint64{64, 128, 256, 512, 528}},
		{64, 144, []uint64{64, 128, 144}},
		// Bounds that are no power of two: the first class is the power at
		// or above min, the top one max rounded up to 8.
		{100, 1000, []uint64{128, 256, 512, 1000}},
		{100, 101, []uint64{104}},
		{1, 5, []uint64{1, 2, 4, 8}},
	} {
		if got := SizeClasses(tc.min, tc.max); !slices.Equal(got, tc.want) {
			t.Errorf("SizeClasses(%d, %d) = %v, want %v", tc.min, tc.max, got, tc.want)
		}
	}
}

func TestClassFor(t *testing.T) {
	cs := SizeClasses(64, 4096+16)
	for _, tc := range []struct {
		n    uint64
		want uint64
	}{{1, 64}, {64, 64}, {65, 128}, {512, 512}, {513, 1024}, {4096, 4096}, {4097, 4112}, {4112, 4112}} {
		i, err := ClassFor(cs, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if cs[i] != tc.want {
			t.Fatalf("ClassFor(%d) -> %d, want %d", tc.n, cs[i], tc.want)
		}
	}
	if _, err := ClassFor(cs, 4113); err == nil {
		t.Fatal("oversized allocation accepted")
	}
}

// ladderHolds checks SizeClasses(lo, hi): ascending (so unique) from at
// least lo to hi rounded up to 8, powers of two below the top, and every
// size in ns (within [lo, hi]) in a buffer less than twice its size.
func ladderHolds(lo, hi uint64, ns iter.Seq[uint64]) bool {
	cs := SizeClasses(lo, hi)
	if cs[0] < lo || cs[len(cs)-1] != (hi+7)&^7 {
		return false
	}
	for i, c := range cs {
		if i > 0 && c <= cs[i-1] || i < len(cs)-1 && c&(c-1) != 0 {
			return false
		}
	}
	for n := range ns {
		if i, err := ClassFor(cs, n); err != nil || cs[i] < n || cs[i] >= 2*n {
			return false
		}
	}
	return true
}

// Property: §3.2's 2x bound survives the clipped top class, for any
// bounds; and exhaustively for every size a store of 4 KiB values can be
// asked for.
func TestQuickSizeClassOverheadBound(t *testing.T) {
	f := func(a, b uint32, probe uint32) bool {
		lo, hi := uint64(a)%(1<<16)+1, uint64(b)%(1<<20)+1
		if hi < lo {
			lo, hi = hi, lo
		}
		return ladderHolds(lo, hi, slices.Values([]uint64{lo, hi, lo + uint64(probe)%(hi-lo+1)}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
	every := func(yield func(uint64) bool) {
		for n := uint64(64); n <= 4096+16 && yield(n); n++ {
		}
	}
	if !ladderHolds(64, 4096+16, every) {
		t.Fatal("a size in [64, 4112] lands outside [n, 2n) of SizeClasses(64, 4112)")
	}
}

// Property: the quiescer never runs a flush while an older op is in
// flight, and always runs it once those drain — modeled against a naive
// reference implementation over a random schedule.
func TestQuickQuiescerSafety(t *testing.T) {
	f := func(script []byte) bool {
		q := NewQuiescer()
		type flush struct {
			horizon uint64 // ids below this started before the flush
			ran     *bool
		}
		var live []uint64
		var nextID uint64
		var flushes []flush
		for _, b := range script {
			switch b % 3 {
			case 0:
				live = append(live, q.OpStart())
				nextID++
			case 1:
				if len(live) > 0 {
					i := int(b/3) % len(live)
					q.OpEnd(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 2:
				ran := new(bool)
				q.AfterQuiesce(func() { *ran = true })
				flushes = append(flushes, flush{horizon: nextID, ran: ran})
			}
			// Invariant: a flush has run iff no op live at flush time is
			// still live. An op is "live at flush time" exactly when its id
			// is >= the smallest live id recorded then and it started
			// before the flush — since ids are issued in order, checking
			// ids below the flush's OpStart horizon suffices; the recorded
			// barrier is the min live id at flush time, so any still-live
			// op with id >= barrier that predates the flush blocks it.
			for _, fl := range flushes {
				blocked := false
				for _, id := range live {
					if id < fl.horizon {
						blocked = true
					}
				}
				if blocked && *fl.ran {
					return false // ran too early
				}
				if !blocked && !*fl.ran {
					return false // never ran after drain
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

package alloc

import (
	"errors"
	"math/rand"
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
	if len(f.Tracked()) != f.Len() {
		t.Fatalf("Tracked reports %d buffers, Len %d", len(f.Tracked()), f.Len())
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
	cs := SizeClasses(64, 4096)
	want := []uint64{64, 128, 256, 512, 1024, 2048, 4096}
	if len(cs) != len(want) {
		t.Fatalf("classes %v", cs)
	}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("classes %v, want %v", cs, want)
		}
	}
	// Non-power-of-two bounds round sensibly.
	cs = SizeClasses(100, 1000)
	want = []uint64{128, 256, 512, 1024}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("classes %v, want %v", cs, want)
		}
	}
}

func TestClassFor(t *testing.T) {
	cs := SizeClasses(64, 4096)
	for _, tc := range []struct {
		n    uint64
		want uint64
	}{{1, 64}, {64, 64}, {65, 128}, {512, 512}, {513, 1024}, {4096, 4096}} {
		i, err := ClassFor(cs, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if cs[i] != tc.want {
			t.Fatalf("ClassFor(%d) -> %d, want %d", tc.n, cs[i], tc.want)
		}
	}
	if _, err := ClassFor(cs, 4097); err == nil {
		t.Fatal("oversized request accepted")
	}
}

// Property: power-of-two classing wastes less than 2x space.
func TestQuickSizeClassOverheadBound(t *testing.T) {
	cs := SizeClasses(1, 1<<20)
	f := func(n uint32) bool {
		sz := uint64(n)%(1<<20) + 1
		i, err := ClassFor(cs, sz)
		if err != nil {
			return false
		}
		return cs[i] >= sz && cs[i] < 2*sz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
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

// Package alloc implements PRISM's free-list buffer allocation (§3.2).
//
// A free list is a queue of equal-sized registered buffers, which the
// paper represents as an RDMA queue pair; the NIC data plane pops the
// head buffer to satisfy an ALLOCATE. The paper's server-side process
// that posts buffers is folded into the list: one that runs dry registers
// one more slab and posts its buffers, up to the cap it was created with.
// Reposting a recycled buffer is only safe once every NIC operation that
// was in flight when the buffer was retired has completed; the Quiescer
// type implements that synchronization (the paper notes NICs already have
// an equivalent reader/writer mechanism for CAS processing).
package alloc

import (
	"errors"
	"fmt"
	"iter"

	"prism/internal/memory"
)

// ErrEmpty is returned when an ALLOCATE finds the free list empty and at
// its cap; the NIC surfaces it to the client as an RNR NAK.
var ErrEmpty = errors.New("alloc: free list empty")

// SlabBytes is the unit in which stores register memory: a free list that
// runs dry registers one slab (less for the slab that reaches the cap, one
// buffer if a buffer is larger), and RegisterArray cuts a store's arrays
// into regions no longer than one. A constant, not a setting. A region is
// also what a fork copies on its first write to it (memory.Snapshot.Fork),
// so the slab bounds both what a list holds beyond its outstanding buffers
// and what one write costs a fork; 64 KiB still amortises a registration
// over 124 ALLOCATEs of the largest buffer the figures use (528 bytes).
const SlabBytes = 64 << 10

// RegisterArray registers n elements of stride bytes as consecutive
// regions under key (under a fresh key if key is 0) and returns the key and
// the first element's address: element i is at base + i*stride, as in one
// region. Every region holds whole elements and, but for the last, a
// multiple of 64 bytes — the space's alignment between regions, so the next
// one starts where the last ended — and is at most SlabBytes long unless a
// single 64-byte-aligned run of elements is longer. An access that crosses
// from one region into the next is rejected like any region overrun, which
// no access within one element does.
func RegisterArray(space *memory.Space, key memory.RKey, n, stride uint64) (memory.RKey, memory.Addr, error) {
	if n == 0 || stride == 0 {
		return 0, 0, memory.ErrRegionTooWide
	}
	unit := 64 / min(stride&-stride, 64) // fewest elements filling a multiple of 64 bytes
	per := max(unit, SlabBytes/stride/unit*unit)
	var base memory.Addr
	for i := uint64(0); i < n; i += per {
		var r *memory.Region
		var err error
		if key == 0 {
			r, err = space.Register(min(per, n-i) * stride)
		} else {
			r, err = space.RegisterShared(key, min(per, n-i)*stride)
		}
		if err != nil {
			return 0, 0, err
		}
		if i == 0 {
			key, base = r.Key, r.Base
		}
	}
	return key, base, nil
}

// Slab is one registered region a list carved: Count buffers from Base.
type Slab struct {
	Base  memory.Addr
	Count int
}

// FreeList is a queue of equal-sized registered buffers that provisions
// itself on demand. It is not goroutine-safe: every method runs where
// the space's other mutations run — under Space.Guard on a live host, in
// the server's event domain in the simulator.
type FreeList struct {
	ID      uint32
	BufSize uint64
	Key     memory.RKey

	space *memory.Space
	room  int    // buffers the list may still carve: the cap less slabs' counts
	slabs []Slab // in carve order
	// ring holds the available buffers, oldest at head; its length is a
	// power of two.
	ring    []memory.Addr
	head, n int
	// pending holds retired buffers awaiting quiesce, oldest first; the
	// first flushed of them are already queued on a Quiescer.
	pending []memory.Addr
	flushed int
}

// NewFreeList returns an empty free list of bufSize-byte buffers under
// key that carves its buffers from space as Pop needs them, limit (the
// cap) at most. A zero limit makes a list that only holds what is Posted.
func NewFreeList(id uint32, bufSize uint64, key memory.RKey, space *memory.Space, limit int) *FreeList {
	if bufSize == 0 {
		panic("alloc: zero buffer size")
	}
	return &FreeList{ID: id, BufSize: bufSize, Key: key, space: space, room: limit}
}

// Post appends a buffer nothing in flight can still reference (fresh, or
// cleared by a quiesce). For recycled buffers use Recycle + Quiescer.
func (f *FreeList) Post(addr memory.Addr) {
	if f.n == len(f.ring) {
		ring := make([]memory.Addr, max(16, 2*len(f.ring)))
		for i := 0; i < f.n; i++ {
			ring[i] = f.ring[(f.head+i)&(len(f.ring)-1)]
		}
		f.ring, f.head = ring, 0
	}
	f.ring[(f.head+f.n)&(len(f.ring)-1)] = addr
	f.n++
}

// Clone returns an independent copy of the list bound to space, a fork of
// the space it was carved from: buffer addresses are layout positions, so
// they stay valid in the fork, and a fork inherits the allocation pointer,
// so every clone carves the same addresses next.
func (f *FreeList) Clone(space *memory.Space) *FreeList {
	nf := *f
	nf.space = space
	nf.slabs = append([]Slab(nil), f.slabs...)
	nf.ring = append([]memory.Addr(nil), f.ring...)
	nf.pending = append([]memory.Addr(nil), f.pending...)
	return &nf
}

// Pop removes and returns the head buffer, carving a slab first if the
// queue is empty and the list below its cap.
func (f *FreeList) Pop() (memory.Addr, error) {
	if f.n == 0 {
		if err := f.carve(); err != nil {
			return 0, err
		}
	}
	a := f.ring[f.head]
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
	return a, nil
}

// carve registers the next slab under the list's key and posts its
// buffers; ErrEmpty at the cap.
func (f *FreeList) carve() error {
	count := min(max(1, int(SlabBytes/f.BufSize)), f.room)
	if count <= 0 {
		return ErrEmpty
	}
	r, err := f.space.RegisterShared(f.Key, uint64(count)*f.BufSize)
	if err != nil {
		return err
	}
	f.slabs = append(f.slabs, Slab{Base: r.Base, Count: count})
	f.room -= count
	for i := 0; i < count; i++ {
		f.Post(r.Base + memory.Addr(uint64(i)*f.BufSize))
	}
	return nil
}

// Len reports the available buffers, not counting what may yet be carved.
func (f *FreeList) Len() int { return f.n }

// Slabs reports the regions carved so far, in carve order: every buffer
// the list ever handed out lies in one of them. Read-only.
func (f *FreeList) Slabs() []Slab { return f.slabs }

// Tracked visits every buffer the list owns now: available, then
// pending-repost. Reclamation scans tell leaked buffers from free ones by
// it. The list must not change during the visit.
func (f *FreeList) Tracked() iter.Seq[memory.Addr] {
	return func(yield func(memory.Addr) bool) {
		for i := 0; i < f.n; i++ {
			if !yield(f.ring[(f.head+i)&(len(f.ring)-1)]) {
				return
			}
		}
		for _, a := range f.pending {
			if !yield(a) {
				return
			}
		}
	}
}

// Pending reports buffers retired but not yet reposted.
func (f *FreeList) Pending() int { return len(f.pending) }

// Recycle records a retired buffer; it becomes available again only after
// the owning Quiescer observes that all operations concurrent with the
// retirement have drained.
func (f *FreeList) Recycle(addr memory.Addr) { f.pending = append(f.pending, addr) }

// FlushWhenQuiet reposts the currently pending buffers once q observes
// that all in-flight operations have drained. A list flushes through one
// quiescer, whose waits fire in order, so a wait need only record how many
// of the oldest pending buffers it covers.
func (f *FreeList) FlushWhenQuiet(q *Quiescer) {
	if n := len(f.pending) - f.flushed; n > 0 {
		f.flushed += n
		q.wait(quiesceWait{list: f, count: n})
	}
}

// repost moves the n oldest pending buffers back onto the queue.
func (f *FreeList) repost(n int) {
	for _, a := range f.pending[:n] {
		f.Post(a)
	}
	f.pending = f.pending[:copy(f.pending, f.pending[n:])]
	f.flushed -= n
}

// Quiescer tracks in-flight NIC operations so recycled buffers are only
// reposted once every operation that might still hold a pointer to them
// has completed (§3.2's correctness requirement for buffer reuse).
//
// It is an epoch scheme: OpStart/OpEnd bracket every NIC op. A Flush call
// stamps the current epoch; once all ops started in or before that epoch
// finish, the flush's callback runs.
type Quiescer struct {
	inFlight map[uint64]struct{}
	nextOp   uint64
	waits    []quiesceWait
}

// quiesceWait is one deferred action: a callback, or (fn nil) the repost
// of list's count oldest pending buffers, which needs no closure.
type quiesceWait struct {
	barrier uint64 // all ops with id < barrier must finish
	fn      func()
	list    *FreeList
	count   int
}

// NewQuiescer returns an idle quiescer.
func NewQuiescer() *Quiescer {
	return &Quiescer{inFlight: make(map[uint64]struct{})}
}

// OpStart registers an in-flight operation and returns its token.
func (q *Quiescer) OpStart() uint64 {
	id := q.nextOp
	q.nextOp++
	q.inFlight[id] = struct{}{}
	return id
}

// OpEnd retires the operation with the given token.
func (q *Quiescer) OpEnd(id uint64) {
	if _, ok := q.inFlight[id]; !ok {
		panic(fmt.Sprintf("alloc: OpEnd(%d) without matching OpStart", id))
	}
	delete(q.inFlight, id)
	q.advance()
}

// AfterQuiesce schedules fn to run once every operation currently in
// flight has completed. Operations starting later do not delay fn.
func (q *Quiescer) AfterQuiesce(fn func()) { q.wait(quiesceWait{fn: fn}) }

func (q *Quiescer) wait(w quiesceWait) {
	w.barrier = q.nextOp
	q.waits = append(q.waits, w)
	q.advance()
}

// InFlight reports the number of outstanding operations.
func (q *Quiescer) InFlight() int { return len(q.inFlight) }

// advance runs, in order, every wait whose barrier has drained. Each is
// dequeued before it runs (a callback may queue another) by shifting the
// short queue down, so its storage is reused rather than walked off.
func (q *Quiescer) advance() {
	for len(q.waits) > 0 && q.oldest() >= q.waits[0].barrier {
		w, last := q.waits[0], len(q.waits)-1
		copy(q.waits, q.waits[1:])
		q.waits[last] = quiesceWait{}
		q.waits = q.waits[:last]
		if w.fn != nil {
			w.fn()
		} else {
			w.list.repost(w.count)
		}
	}
}

// oldest returns the smallest in-flight op id, or nextOp if none.
func (q *Quiescer) oldest() uint64 {
	min := q.nextOp
	for id := range q.inFlight {
		if id < min {
			min = id
		}
	}
	return min
}

// SizeClasses returns the buffer sizes of a store whose entries run from
// minSize to maxSize bytes: the powers of two from minSize up (§3.2:
// powers of two bound space overhead at 2x), except that the top class is
// maxSize itself rounded up to 8 rather than the power of two at or above
// it. A store whose entries are all its largest (every figure's) holds
// them exactly; the 16-byte entry header would otherwise put the paper's
// 512 B object in a 1024 B buffer.
func SizeClasses(minSize, maxSize uint64) []uint64 {
	if minSize == 0 || maxSize < minSize {
		panic("alloc: bad size class range")
	}
	top := (maxSize + 7) &^ 7
	var out []uint64
	s := uint64(1)
	for s < minSize {
		s <<= 1
	}
	for ; s < top; s <<= 1 {
		out = append(out, s)
	}
	return append(out, top)
}

// ClassFor returns the index of the smallest class in classes (ascending)
// that fits n bytes.
func ClassFor(classes []uint64, n uint64) (int, error) {
	for i, c := range classes {
		if n <= c {
			return i, nil
		}
	}
	return 0, fmt.Errorf("alloc: %d bytes exceeds largest class %d", n, classes[len(classes)-1])
}

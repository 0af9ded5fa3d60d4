package memory

import "fmt"

// pageSize is the granularity at which a fork copies its parent's bytes.
// 64 KiB keeps the per-region page table small (a few hundred entries for
// the largest bench regions) while still letting a fork that touches a
// handful of slots avoid copying a multi-megabyte value heap. Private
// storage is allocated per region, not per page: see privatize.
const pageSize = 1 << 16

// Snapshot is an immutable image of a fully built Space. Taking a snapshot
// seals the parent: further registrations or writes to it panic, which is
// what makes handing the same backing bytes to many concurrent forks safe.
type Snapshot struct {
	s *Space
}

// Snapshot seals the space and returns an immutable handle that forks can
// be created from. The space must not itself contain copy-on-write regions
// (snapshot-of-fork is not supported; build templates on fresh spaces).
func (s *Space) Snapshot() *Snapshot {
	for _, r := range s.regions {
		if r.shared != nil {
			panic("memory: snapshot of a forked space is not supported")
		}
	}
	s.sealed = true
	return &Snapshot{s: s}
}

// Space returns the sealed parent space, for read-only inspection (tests
// that verify forks never write through to the template).
func (sn *Snapshot) Space() *Space { return sn.s }

// Fork returns a new Space with the same regions, rkeys, bounds, and
// allocation state as the snapshot. Region bytes are shared with the
// parent until the fork writes the region: the first write allocates
// private storage for the whole region and from then on pages are copied
// one at a time, as writes reach them. A fork costs nothing for a region
// it only reads and a region's worth of memory for one it writes at all,
// so stores register small regions (slabs). Fork itself only reads the
// sealed parent and may be called from multiple goroutines concurrently;
// each returned Space is single-threaded like any other Space.
func (sn *Snapshot) Fork() *Space {
	p := sn.s
	ns := &Space{
		regions: make([]*Region, len(p.regions)),
		nextKey: p.nextKey,
		brk:     p.brk,
	}
	for i, r := range p.regions {
		ns.regions[i] = &Region{
			Base:   r.Base,
			Len:    r.Len,
			Key:    r.Key,
			shared: r.data,
			dirty:  make([]bool, (r.Len+pageSize-1)/pageSize),
		}
	}
	return ns
}

// view returns the bytes backing [off, off+n) for reading. When the range
// lies entirely on shared (never-written) pages it aliases the parent's
// bytes; when it spans both shared and private pages the shared part is
// privatized first so the caller sees one contiguous, current slice.
func (r *Region) view(off, n uint64) []byte {
	if r.shared == nil {
		return r.data[off : off+n : off+n]
	}
	lo, hi := pageRange(off, n)
	clean := true
	for p := lo; p < hi; p++ {
		if r.dirty[p] {
			clean = false
			break
		}
	}
	if clean {
		return r.shared[off : off+n : off+n]
	}
	r.privatize(lo, hi)
	return r.data[off : off+n : off+n]
}

// writable returns mutable bytes for [off, off+n), privatizing any shared
// pages the range overlaps.
func (r *Region) writable(off, n uint64) []byte {
	if r.shared != nil {
		lo, hi := pageRange(off, n)
		r.privatize(lo, hi)
	}
	return r.data[off : off+n : off+n]
}

// privatize copies pages [lo, hi) from the parent into this fork's private
// storage, which the first call allocates (zeroed) for the whole region: one
// dense slice, so that view can hand out an access that straddles pages as
// one contiguous range. Page-granular storage is not earned: the points of a
// figure set dirty 84% of the bytes they allocate this way (DESIGN.md §13).
// Once every page is private the shared reference is dropped.
func (r *Region) privatize(lo, hi uint64) {
	if r.data == nil {
		r.data = make([]byte, r.Len)
	}
	for p := lo; p < hi; p++ {
		if r.dirty[p] {
			continue
		}
		start := p * pageSize
		end := start + pageSize
		if end > r.Len {
			end = r.Len
		}
		copy(r.data[start:end], r.shared[start:end])
		r.dirty[p] = true
		r.nDirty++
	}
	if r.nDirty == len(r.dirty) {
		r.shared = nil
		r.dirty = nil
	}
}

// pageRange returns the half-open page index range covering [off, off+n).
// A zero-length access still touches the page holding off.
func pageRange(off, n uint64) (lo, hi uint64) {
	lo = off / pageSize
	hi = (off + n + pageSize - 1) / pageSize
	if hi == lo {
		hi = lo + 1
	}
	return lo, hi
}

// Shared reports whether the region still shares any pages with its fork
// parent (false for ordinary regions and fully privatized forks).
func (r *Region) Shared() bool { return r.shared != nil }

// Sealed reports whether the space has been snapshotted and no longer
// accepts registrations or writes.
func (s *Space) Sealed() bool { return s.sealed }

// Regions returns the space's registered regions in registration order.
// Callers must treat the result as read-only (checksumming, inspection).
func (s *Space) Regions() []*Region {
	return append([]*Region(nil), s.regions...)
}

// RegionAt returns the registered region containing addr, or nil. This is
// CPU-side (no rkey check): applications use it to re-resolve region
// handles after instantiating a server from a forked space, where region
// objects differ from the template's but addresses are identical.
func (s *Space) RegionAt(addr Addr) *Region {
	return s.find(addr)
}

func (s *Space) checkMutable() {
	if s.sealed {
		panic(fmt.Sprintf("memory: mutation of sealed snapshot space (brk %#x)", s.brk))
	}
}

package memory

import (
	"fmt"
	"slices"
)

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
		if r.shared {
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
// allocation state as the snapshot. The region is the copy-on-write unit:
// a region's bytes are the parent's until the fork first writes it, and
// that write copies the whole region. A fork costs nothing for a region it
// only reads and the region's length for one it writes at all, so stores
// register small regions (alloc.SlabBytes, DESIGN.md §13). Fork allocates
// the same few objects whatever the region count, only reads the sealed
// parent, and may be called from multiple goroutines concurrently; each
// returned Space is single-threaded like any other Space.
func (sn *Snapshot) Fork() *Space {
	p := sn.s
	ns := &Space{
		regions: make([]*Region, len(p.regions)),
		nextKey: p.nextKey,
		brk:     p.brk,
	}
	recs := make([]Region, len(p.regions))
	for i, r := range p.regions {
		recs[i] = Region{Base: r.Base, Len: r.Len, Key: r.Key, shared: true, data: r.data}
		ns.regions[i] = &recs[i]
	}
	return ns
}

// writable returns mutable bytes for [off, off+n), first copying a forked
// region's shared bytes into private storage.
func (r *Region) writable(off, n uint64) []byte {
	if r.shared {
		r.data, r.shared = slices.Clone(r.data), false
	}
	return r.data[off : off+n : off+n]
}

// Shared reports whether the region still shares its bytes with its fork
// parent (false for ordinary regions and forked regions already written).
func (r *Region) Shared() bool { return r.shared }

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

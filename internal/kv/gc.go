package kv

import (
	"cmp"
	"slices"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/prism"
)

// ScanAndReclaim implements §3.2's garbage-collection-inspired alternative
// to client-driven buffer reclamation: the server CPU scans the hash table
// to find every buffer still referenced by a slot, treats any tracked-by-
// no-one buffer as leaked (e.g. a client crashed between its CAS and its
// reclamation RPC), waits for in-flight NIC operations to quiesce, and
// reposts the leaked buffers to their free lists.
//
// done is invoked with the number of reclaimed buffers once the quiesce
// completes (immediately, when the NIC is idle). It runs inside the
// host's Quiesce callback, possibly with the space guard held, so it must
// not take the guard: no Load, RecycleBuffers or nested ScanAndReclaim
// from done (transport.HostCore.Quiesce).
//
// The store may be serving: the first scan reads the table and the free
// lists under the space guard, like every CPU-side access beside live
// sockets, and lets go of it before Quiesce, which takes it itself; the
// re-scan runs inside the callback, under Quiesce's hold.
//
// Safety: a buffer that is neither referenced by any slot nor owned by a
// free list at scan time can only be held by an operation already in
// flight (an allocate-then-CAS chain that has not installed yet, or a
// CAS-loser awaiting client reclamation). Operations starting after the
// scan cannot acquire it — it is not on any free list. The post-quiesce
// re-scan therefore sees its final state: installed (skip) or leaked
// (reclaim).
func (s *Server) ScanAndReclaim(done func(reclaimed int)) {
	g := s.host.Space().Guard()
	g.Lock()
	candidates := s.leakedBuffers()
	g.Unlock()
	if len(candidates) == 0 {
		if done != nil {
			done(0)
		}
		return
	}
	s.host.Quiesce(func() {
		// Re-scan: anything installed meanwhile is no longer leaked.
		reclaimed := 0
		for fl, addrs := range s.leakedBuffers() {
			cand := make(map[memory.Addr]bool, len(candidates[fl]))
			for _, a := range candidates[fl] {
				cand[a] = true
			}
			for _, a := range addrs {
				if cand[a] {
					s.host.FreeList(fl).Post(a)
					reclaimed++
				}
			}
		}
		if done != nil {
			done(reclaimed)
		}
	})
}

// slabMarks is the scan's scratch for one carved slab: a bit per buffer,
// set when a hash slot references the buffer or its free list owns it.
type slabMarks struct {
	alloc.Slab
	list    uint32
	bufSize uint64
	bits    []uint64
}

func (m *slabMarks) end() memory.Addr { return m.Base + memory.Addr(uint64(m.Count)*m.bufSize) }

// leakedBuffers returns, per free list, the buffers neither referenced by
// a hash slot nor owned by the free list, in carve order. The caller
// holds the space guard (or is the only thread there is). Its scratch is a
// bit per carved buffer, not a map entry per slot and per free buffer: a
// scan of a store at the paper's keyspace marks a few MB.
func (s *Server) leakedBuffers() map[uint32][]memory.Addr {
	var slabs []slabMarks
	words := 0 // of every slab's bitmap, allocated as one
	for _, info := range s.meta.FreeLists {
		fl := s.host.FreeList(info.ID)
		for _, slab := range fl.Slabs() {
			slabs = append(slabs, slabMarks{Slab: slab, list: fl.ID, bufSize: fl.BufSize})
			words += (slab.Count + 63) / 64
		}
	}
	// Sorted by address for mark's search; a list's slabs stay in carve
	// order, because a space's addresses only grow.
	slices.SortFunc(slabs, func(a, b slabMarks) int { return cmp.Compare(a.Base, b.Base) })
	bits := make([]uint64, words)
	for i := range slabs {
		n := (slabs[i].Count + 63) / 64
		slabs[i].bits, bits = bits[:n:n], bits[n:]
	}
	// mark sets addr's bit; an address that is no buffer boundary of a
	// carved slab names no buffer and marks nothing.
	mark := func(addr memory.Addr) {
		i, _ := slices.BinarySearchFunc(slabs, addr, func(m slabMarks, a memory.Addr) int { return cmp.Compare(m.end()-1, a) })
		if i == len(slabs) || addr < slabs[i].Base {
			return
		}
		if off := uint64(addr - slabs[i].Base); off%slabs[i].bufSize == 0 {
			b := off / slabs[i].bufSize
			slabs[i].bits[b/64] |= 1 << (b % 64)
		}
	}
	space := s.host.Space()
	for i := int64(0); i < s.meta.NSlots; i++ {
		slot, err := space.Peek(s.meta.Key, s.meta.slotAddr(i), slotSize)
		if err != nil {
			continue
		}
		if ptr := prism.LE64(slot, 8); ptr != 0 {
			mark(memory.Addr(ptr))
		}
	}
	for _, info := range s.meta.FreeLists {
		for addr := range s.host.FreeList(info.ID).Tracked() {
			mark(addr)
		}
	}
	leaked := make(map[uint32][]memory.Addr)
	for _, m := range slabs {
		for b := 0; b < m.Count; b++ {
			if m.bits[b/64]&(1<<(b%64)) == 0 {
				leaked[m.list] = append(leaked[m.list], m.Base+memory.Addr(uint64(b)*m.bufSize))
			}
		}
	}
	return leaked
}

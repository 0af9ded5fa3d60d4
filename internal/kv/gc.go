package kv

import (
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

// leakedBuffers returns, per free list, the buffers neither referenced by
// a hash slot nor owned by the free list. The caller holds the space
// guard (or is the only thread there is).
func (s *Server) leakedBuffers() map[uint32][]memory.Addr {
	space := s.host.Space()
	referenced := make(map[memory.Addr]bool, s.meta.NSlots)
	for i := int64(0); i < s.meta.NSlots; i++ {
		slot, err := space.Peek(s.meta.Key, s.meta.slotAddr(i), slotSize)
		if err != nil {
			continue
		}
		if ptr := prism.LE64(slot, 8); ptr != 0 {
			referenced[memory.Addr(ptr)] = true
		}
	}
	leaked := make(map[uint32][]memory.Addr)
	for _, info := range s.meta.FreeLists {
		fl := s.host.FreeList(info.ID)
		tracked := fl.Tracked()
		for _, slab := range fl.Slabs() {
			for b := 0; b < slab.Count; b++ {
				addr := slab.Base + memory.Addr(uint64(b)*fl.BufSize)
				if !referenced[addr] && !tracked[addr] {
					leaked[fl.ID] = append(leaked[fl.ID], addr)
				}
			}
		}
	}
	return leaked
}

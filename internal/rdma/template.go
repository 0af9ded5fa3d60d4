package rdma

import (
	"fmt"
	"sort"

	"prism/internal/alloc"
	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/model"
)

// ServerTemplate is an immutable image of a fully built server: its sealed
// memory snapshot, the free lists as they stood after setup (an instance's
// clones carve their further slabs in its fork), and the connection
// temp-buffer protection key. One template can instantiate any
// number of servers — on any engine, network, or deployment — each backed
// by a copy-on-write fork of the snapshot, so per-point cluster setup cost
// collapses to a fork plus free-list clones.
type ServerTemplate struct {
	snap      *memory.Snapshot
	freeLists map[uint32]*alloc.FreeList
	tempKey   memory.RKey
}

// Capture seals the server's memory space and returns a template of its
// built state. The server must be pristine: no connections, no in-flight
// operations, no pending buffer recycles. The server itself becomes
// read-only (its space is sealed) — capture a throwaway build, then
// instantiate working servers from the template.
func (s *Server) Capture() *ServerTemplate {
	if len(s.conns) != 0 { // connections are never removed, so none also means no temp region
		panic("rdma: Capture with connections established")
	}
	if s.Quiescer().InFlight() != 0 {
		panic("rdma: Capture with in-flight operations")
	}
	t := &ServerTemplate{
		snap:      s.Space().Snapshot(),
		freeLists: make(map[uint32]*alloc.FreeList, len(s.FreeLists())),
		tempKey:   s.TempKey(),
	}
	for id, fl := range s.FreeLists() {
		if fl.Pending() != 0 {
			panic(fmt.Sprintf("rdma: Capture with %d buffers pending recycle on free list %d", fl.Pending(), id))
		}
		t.freeLists[id] = fl.Clone(s.Space())
	}
	return t
}

// Snapshot exposes the sealed memory image (tests compare fork contents
// against it).
func (t *ServerTemplate) Snapshot() *memory.Snapshot { return t.snap }

// NewServerFromTemplate attaches a server whose memory, free lists, and
// temp-key configuration are forked from a captured template. The engine
// and deployment come from the target network, so one template built once
// can serve e.g. both the hardware-RDMA and software-PRISM series of a
// figure. The application layer must still re-attach its CPU-side state
// (RPC handlers, published Meta) with its store's Attach.
func NewServerFromTemplate(net *fabric.Network, name string, deploy model.Deployment, t *ServerTemplate) *Server {
	s := newServer(net, name, deploy, t.snap.Fork())
	ids := make([]uint32, 0, len(t.freeLists))
	for id := range t.freeLists {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s.AddFreeList(t.freeLists[id].Clone(s.Space()))
	}
	s.SetConnTempKey(t.tempKey)
	return s
}

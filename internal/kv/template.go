package kv

import (
	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/rdma"
)

// Template is an immutable image of a fully loaded PRISM-KV server: the
// NIC-level snapshot (memory, free lists, temp key) plus the application
// metadata needed to re-attach the reclamation RPC handler. Build a server
// once on a throwaway engine, Capture it, then instantiate per measurement
// with NewServerFromTemplate — each instance runs on a copy-on-write fork
// of the loaded keyspace.
type Template struct {
	nic  *rdma.ServerTemplate
	meta Meta
}

// Capture seals the server's memory and returns its template. The server
// must have no connections; it becomes read-only afterwards.
func (s *Server) Capture() *Template {
	return &Template{nic: s.rs.Capture(), meta: s.meta}
}

// NIC exposes the transport-level template (tests compare fork contents
// against its snapshot).
func (t *Template) NIC() *rdma.ServerTemplate { return t.nic }

// NewServerFromTemplate instantiates a loaded PRISM-KV server on net from
// a captured template. The deployment is chosen here, so one template
// serves every deployment variant of a figure.
func NewServerFromTemplate(net *fabric.Network, name string, deploy model.Deployment, t *Template) *Server {
	rs := rdma.NewServerFromTemplate(net, name, deploy, t.nic)
	s := &Server{host: rs, rs: rs, meta: t.meta}
	rs.SetRPCHandler(s.handleRPC)
	return s
}

// PilafTemplate is the Pilaf analogue of Template. Pilaf keeps CPU-side
// state (the coherent index, slot ownership, extent allocator), which is
// deep-copied per instantiation; the extents region handle is re-resolved
// in the forked space by address.
type PilafTemplate struct {
	nic         *rdma.ServerTemplate
	meta        PilafMeta
	extentsBase memory.Addr
	extentNext  uint64
	freeSlots   [][2]uint64
	index       map[int64]pilafRef
	slotOwner   map[int64]int64
}

// Capture seals the server and returns its template. The caller must have
// drained the engine first (run it until idle) so Pilaf's tear-delayed
// staged stores have all landed; capturing mid-stage would bake a torn
// entry into every fork.
func (s *PilafServer) Capture() *PilafTemplate {
	t := &PilafTemplate{
		nic:         s.rs.Capture(),
		meta:        s.meta,
		extentsBase: s.extents.Base,
		extentNext:  s.extentNext,
		freeSlots:   append([][2]uint64(nil), s.freeSlots...),
		index:       make(map[int64]pilafRef, len(s.index)),
		slotOwner:   make(map[int64]int64, len(s.slotOwner)),
	}
	for k, v := range s.index {
		t.index[k] = v
	}
	for k, v := range s.slotOwner {
		t.slotOwner[k] = v
	}
	return t
}

// NIC exposes the transport-level template.
func (t *PilafTemplate) NIC() *rdma.ServerTemplate { return t.nic }

// NewPilafServerFromTemplate instantiates a loaded Pilaf server on net.
func NewPilafServerFromTemplate(net *fabric.Network, name string, deploy model.Deployment, t *PilafTemplate) *PilafServer {
	rs := rdma.NewServerFromTemplate(net, name, deploy, t.nic)
	space := rs.Space()
	s := &PilafServer{
		rs:         rs,
		space:      space,
		extents:    space.RegionAt(t.extentsBase),
		extentNext: t.extentNext,
		freeSlots:  append([][2]uint64(nil), t.freeSlots...),
		index:      make(map[int64]pilafRef, len(t.index)),
		slotOwner:  make(map[int64]int64, len(t.slotOwner)),
		meta:       t.meta,
	}
	for k, v := range t.index {
		s.index[k] = v
	}
	for k, v := range t.slotOwner {
		s.slotOwner[k] = v
	}
	rs.SetRPCHandler(s.handleRPC)
	return s
}

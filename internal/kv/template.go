package kv

import (
	"prism/internal/fabric"
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
// state: the extent allocator, which each instance copies (its addresses
// are layout positions, valid in every fork, and a fork inherits the
// allocation pointer, so every instance registers the same next slab),
// and the coherent index and slot ownership, which grow with the keyspace
// and which instances therefore read through (forkedMap) instead of
// copying.
type PilafTemplate struct {
	nic       *rdma.ServerTemplate
	meta      PilafMeta
	extents   pilafExtents
	index     map[int64]pilafRef
	slotOwner map[int64]int64
}

// forkedMap is a map as a template instance sees it: own holds what this
// server stored, base what the template held, shared by every instance
// and never written again. A server built directly has no base. Pilaf
// never deletes a key or frees a slot, so own needs no tombstones.
type forkedMap[V any] struct{ own, base map[int64]V }

func (m forkedMap[V]) get(k int64) (V, bool) {
	if v, ok := m.own[k]; ok {
		return v, true
	}
	v, ok := m.base[k]
	return v, ok
}

// Capture seals the server and returns its template. The server must have
// no connections, so all it holds was put there by Load, which leaves
// nothing staged: the image is settled. The template keeps the server's
// own maps and free-extent list; the server must not be used again.
func (s *PilafServer) Capture() *PilafTemplate {
	return &PilafTemplate{
		nic:       s.rs.Capture(),
		meta:      s.meta,
		extents:   s.extents,
		index:     s.index.own,
		slotOwner: s.slotOwner.own,
	}
}

// NIC exposes the transport-level template.
func (t *PilafTemplate) NIC() *rdma.ServerTemplate { return t.nic }

// NewPilafServerFromTemplate instantiates a loaded Pilaf server on net.
func NewPilafServerFromTemplate(net *fabric.Network, name string, deploy model.Deployment, t *PilafTemplate) *PilafServer {
	rs := rdma.NewServerFromTemplate(net, name, deploy, t.nic)
	s := &PilafServer{
		rs:        rs,
		space:     rs.Space(),
		extents:   t.extents,
		index:     forkedMap[pilafRef]{own: make(map[int64]pilafRef), base: t.index},
		slotOwner: forkedMap[int64]{own: make(map[int64]int64), base: t.slotOwner},
		meta:      t.meta,
	}
	s.extents.free = append([]pilafExtent(nil), t.extents.free...)
	rs.SetRPCHandler(s.handleRPC)
	return s
}

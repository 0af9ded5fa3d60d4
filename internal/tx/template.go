package tx

import (
	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/transport"
)

// Template is an immutable image of a loaded PRISM-TX shard.
type Template struct {
	nic  *rdma.ServerTemplate
	meta Meta
}

// Capture seals the shard's memory and returns its template.
func (s *Shard) Capture() *Template {
	return &Template{nic: s.rs.Capture(), meta: s.meta}
}

// NIC exposes the transport-level template.
func (t *Template) NIC() *rdma.ServerTemplate { return t.nic }

// NewShardFromTemplate instantiates a loaded shard on net.
func NewShardFromTemplate(net *fabric.Network, name string, deploy model.Deployment, t *Template) *Shard {
	rs := rdma.NewServerFromTemplate(net, name, deploy, t.nic)
	rs.SetRPCHandler(transport.ReclamationHandler(rs, rpcFree, t.meta.FreeList))
	return &Shard{rs: rs, meta: t.meta}
}

// FarmTemplate is the FaRM analogue of Template. The object-heap region
// handle is re-resolved by address in each fork.
type FarmTemplate struct {
	nic      *rdma.ServerTemplate
	meta     FarmMeta
	objsBase memory.Addr
}

// Capture seals the server's memory and returns its template.
func (s *FarmServer) Capture() *FarmTemplate {
	return &FarmTemplate{nic: s.rs.Capture(), meta: s.meta, objsBase: s.objs.Base}
}

// NIC exposes the transport-level template.
func (t *FarmTemplate) NIC() *rdma.ServerTemplate { return t.nic }

// NewFarmServerFromTemplate instantiates a loaded FaRM server on net.
func NewFarmServerFromTemplate(net *fabric.Network, name string, deploy model.Deployment, t *FarmTemplate) *FarmServer {
	rs := rdma.NewServerFromTemplate(net, name, deploy, t.nic)
	s := &FarmServer{rs: rs, meta: t.meta, objs: rs.Space().RegionAt(t.objsBase)}
	rs.SetRPCHandler(s.handleRPC)
	return s
}

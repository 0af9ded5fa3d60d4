package abd

import (
	"prism/internal/fabric"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/transport"
)

// Template is an immutable image of an initialized PRISM-RS replica. The
// three replicas of a group are identical after initialization, so one
// template instantiates the whole group — each replica on its own
// copy-on-write fork.
type Template struct {
	nic  *rdma.ServerTemplate
	meta Meta
}

// Capture seals the replica's memory and returns its template.
func (r *Replica) Capture() *Template {
	return &Template{nic: r.rs.Capture(), meta: r.meta}
}

// NIC exposes the transport-level template.
func (t *Template) NIC() *rdma.ServerTemplate { return t.nic }

// NewReplicaFromTemplate instantiates an initialized replica on net.
func NewReplicaFromTemplate(net *fabric.Network, name string, deploy model.Deployment, t *Template) *Replica {
	rs := rdma.NewServerFromTemplate(net, name, deploy, t.nic)
	rs.SetRPCHandler(transport.ReclamationHandler(rs, rpcFree, t.meta.FreeList))
	return &Replica{rs: rs, meta: t.meta}
}

// LockTemplate is the ABDLOCK analogue of Template. Lock replicas are
// passive (no RPC handler, no free lists), so the template is just the
// sealed memory image plus metadata.
type LockTemplate struct {
	nic  *rdma.ServerTemplate
	meta LockMeta
}

// Capture seals the replica's memory and returns its template.
func (r *LockReplica) Capture() *LockTemplate {
	return &LockTemplate{nic: r.rs.Capture(), meta: r.meta}
}

// NIC exposes the transport-level template.
func (t *LockTemplate) NIC() *rdma.ServerTemplate { return t.nic }

// NewLockReplicaFromTemplate instantiates an initialized lock replica.
func NewLockReplicaFromTemplate(net *fabric.Network, name string, deploy model.Deployment, t *LockTemplate) *LockReplica {
	rs := rdma.NewServerFromTemplate(net, name, deploy, t.nic)
	return &LockReplica{rs: rs, meta: t.meta}
}

package tx

import (
	"prism/internal/rdma"
	"prism/internal/sim"
)

// The simulated shells bind a protocol's issuers and fan-out to the
// calling process through one rdma.Group, as kv.Client binds kvCore
// through an rdma.ProcConn. A control connection per shard is set as
// Reclaim[i].Ctrl = &rdma.ProcConn{Conn: ctrl}.

// Client is PRISM-TX over simulated connections, one per shard.
type Client struct {
	*txCore
	g *rdma.Group
}

// NewClient builds a transaction client over the given shards.
func NewClient(id uint16, conns []*rdma.Conn, metas []Meta) *Client {
	g := rdma.NewGroup(conns)
	return &Client{newTx(id, g.Issuers, g.Fanout(), metas), g}
}

// Begin starts a transaction.
func (c *Client) Begin() *Tx { return &Tx{c.begin(), c.g} }

// Tx is one PRISM-TX transaction; Read and Commit are txn's, issued from
// process p.
type Tx struct {
	*txn
	g *rdma.Group
}

func (t *Tx) Read(p *sim.Proc, k int64) ([]byte, error) { t.g.Bind(p); return t.txn.Read(k) }
func (t *Tx) Commit(p *sim.Proc) (Timestamp, error)     { t.g.Bind(p); return t.txn.Commit() }

// FarmClient is FaRM over simulated connections, one per server.
type FarmClient struct {
	*farmCore
	g *rdma.Group
}

// NewFarmClient builds a client over the given servers.
func NewFarmClient(id uint16, conns []*rdma.Conn, metas []FarmMeta) *FarmClient {
	g := rdma.NewGroup(conns)
	return &FarmClient{newFarm(id, g.Issuers, g.Fanout(), metas), g}
}

// Begin starts a transaction.
func (c *FarmClient) Begin() *FarmTx { return &FarmTx{c.begin(), c.g} }

// FarmTx is one FaRM transaction; Read and Commit are farmTxn's, issued
// from process p.
type FarmTx struct {
	*farmTxn
	g *rdma.Group
}

func (t *FarmTx) Read(p *sim.Proc, k int64) ([]byte, error) { t.g.Bind(p); return t.farmTxn.Read(k) }
func (t *FarmTx) Commit(p *sim.Proc) (Timestamp, error)     { t.g.Bind(p); return t.farmTxn.Commit() }

package abd

import (
	"prism/internal/rdma"
	"prism/internal/sim"
)

// The simulated shells bind a protocol's issuers and fan-outs to the
// calling process through one rdma.Group, as kv.Client binds kvCore
// through an rdma.ProcConn. A control connection per replica is set as
// Reclaim[i].Ctrl = &rdma.ProcConn{Conn: ctrl}.

// Client is PRISM-RS over simulated connections, one per replica (2f+1).
type Client struct {
	*rsCore
	g *rdma.Group
}

// NewClient builds a client over one connection per replica.
func NewClient(id uint16, conns []*rdma.Conn, metas []Meta) *Client {
	g := rdma.NewGroup(conns)
	return &Client{newRS(id, g.Issuers, g.Fanout(), g.Fanout(), metas), g}
}

// Get, GetT, Put and PutT are rsCore's, issued from process p.
func (c *Client) Get(p *sim.Proc, b int64) ([]byte, error)         { return c.on(p).Get(b) }
func (c *Client) GetT(p *sim.Proc, b int64) (Tag, []byte, error)   { return c.on(p).GetT(b) }
func (c *Client) Put(p *sim.Proc, b int64, v []byte) error         { return c.on(p).Put(b, v) }
func (c *Client) PutT(p *sim.Proc, b int64, v []byte) (Tag, error) { return c.on(p).PutT(b, v) }
func (c *Client) on(p *sim.Proc) *rsCore                           { c.g.Bind(p); return c.rsCore }

// LockClient is ABDLOCK over simulated connections, one per replica.
type LockClient struct {
	*lockCore
	g *rdma.Group
}

// NewLockClient builds a client over one connection per replica.
func NewLockClient(id uint16, conns []*rdma.Conn, metas []LockMeta, jitter func() float64) *LockClient {
	g := rdma.NewGroup(conns)
	return &LockClient{newLock(id, g.Issuers, g.Fanout(), metas, jitter), g}
}

// Get, GetT, Put and PutT are lockCore's, issued from process p.
func (c *LockClient) Get(p *sim.Proc, b int64) ([]byte, error)         { return c.on(p).Get(b) }
func (c *LockClient) GetT(p *sim.Proc, b int64) (Tag, []byte, error)   { return c.on(p).GetT(b) }
func (c *LockClient) Put(p *sim.Proc, b int64, v []byte) error         { return c.on(p).Put(b, v) }
func (c *LockClient) PutT(p *sim.Proc, b int64, v []byte) (Tag, error) { return c.on(p).PutT(b, v) }
func (c *LockClient) on(p *sim.Proc) *lockCore                         { c.g.Bind(p); return c.lockCore }

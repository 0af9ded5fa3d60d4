// Package prism is a from-scratch reproduction of "PRISM: Rethinking the
// RDMA Interface for Distributed Systems" (SOSP 2021): the four PRISM
// primitives — indirection, allocation, enhanced compare-and-swap, and
// operation chaining — implemented over a calibrated, deterministic
// discrete-event simulation of an RDMA datacenter fabric, plus the paper's
// three applications (PRISM-KV, PRISM-RS, PRISM-TX) and their baselines
// (Pilaf, lock-based ABD, FaRM).
//
// The package is a facade over the internal packages: it wires clusters
// together and re-exports the types applications need. A typical session:
//
//	c := prism.NewCluster(prism.ClusterConfig{})
//	srv := c.NewServer("kv-server", prism.SoftwarePRISM)
//	store, _ := prism.NewKVServer(srv, prism.KVOptions(1024, 512))
//	machine := c.NewClientMachine("client-1")
//	kv := prism.NewKVClient(machine.Connect(srv), store.Meta(), 1).Client
//	c.Go("app", func(p *prism.Proc) {
//	    kv.Put(7, []byte("hello")) // parks p until the chain completes
//	    v, _ := kv.Get(7)
//	    fmt.Println(string(v))
//	})
//	c.Run()
//
// Everything executes on a virtual clock: latencies and throughputs in
// results are simulated microseconds calibrated against the paper's
// testbed (see internal/model), not wall-clock time.
package prism

import (
	"prism/internal/abd"
	"prism/internal/fabric"
	"prism/internal/kv"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/tx"
)

// Re-exported core types.
type (
	// Proc is a blocking simulated process: client operations block the
	// one that calls them.
	Proc = sim.Proc
	// Engine is the discrete-event simulator driving a cluster.
	Engine = sim.Engine
	// Deployment selects the NIC data-path model for a server.
	Deployment = model.Deployment
	// SwitchProfile is a network latency profile.
	SwitchProfile = model.SwitchProfile
	// Params is the calibrated cost model.
	Params = model.Params

	// Server is a server machine's NIC endpoint.
	Server = rdma.Server
	// ClientMachine is a client machine's NIC endpoint.
	ClientMachine = rdma.Client
	// Conn is a reliable connection (queue pair) to a server.
	Conn = rdma.Conn

	// KVServer: PRISM-KV (§6).
	KVServer = kv.Server
	// PilafServer / PilafClient: the Pilaf baseline.
	PilafServer = kv.PilafServer
	PilafClient = kv.PilafClient
	// ChainStore / ChainClient: the bucketed linked-list store the CHASE
	// verb-program experiments walk (DESIGN.md §14, fig-chase).
	ChainStore  = kv.ChainStore
	ChainClient = kv.ChainClient
	// ChainMeta / ChainOptions: chain-store control plane and sizing.
	ChainMeta    = kv.ChainMeta
	ChainOptions = kv.ChainOptions

	// RSReplica / RSClient: PRISM-RS replicated block store (§7).
	RSReplica = abd.Replica
	RSClient  = abd.Client

	// TXShard / TXClient: PRISM-TX distributed transactions (§8).
	TXShard  = tx.Shard
	TXClient = tx.Client
	// Tx is one PRISM-TX transaction.
	Tx = tx.Tx
	// FarmServer / FarmClient: the FaRM baseline.
	FarmServer = tx.FarmServer
	FarmClient = tx.FarmClient
)

// Deployment models (§4.3).
const (
	HardwareRDMA           = model.HardwareRDMA
	SoftwarePRISM          = model.SoftwarePRISM
	ProjectedHardwarePRISM = model.ProjectedHardwarePRISM
	BlueFieldPRISM         = model.BlueFieldPRISM
)

// Network profiles (Fig. 2).
var (
	Direct     = model.Direct
	Rack       = model.Rack
	Cluster    = model.Cluster
	Datacenter = model.Datacenter
)

// Sentinel errors re-exported for convenience.
var (
	ErrKVNotFound = kv.ErrNotFound
	ErrTxAborted  = tx.ErrAborted
)

// ClusterConfig configures a simulated cluster.
type ClusterConfig struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Network is the switch latency profile (default: Rack, the paper's
	// application testbed).
	Network *SwitchProfile
	// Params overrides the whole cost model (optional; default is the
	// paper-calibrated model).
	Params *Params
}

// ClusterSim is a set of machines on one simulated fabric.
type ClusterSim struct {
	engine *sim.Engine
	net    *fabric.Network
	params model.Params
}

// NewCluster creates an empty cluster.
func NewCluster(cfg ClusterConfig) *ClusterSim {
	p := model.Default()
	if cfg.Params != nil {
		p = *cfg.Params
	}
	if cfg.Network != nil {
		p.Network = *cfg.Network
	}
	e := sim.NewEngine(cfg.Seed)
	return &ClusterSim{engine: e, net: fabric.New(e, p), params: p}
}

// Engine exposes the simulation engine (clock, scheduling).
func (c *ClusterSim) Engine() *Engine { return c.engine }

// ParamsInEffect returns the cost model the cluster runs with.
func (c *ClusterSim) ParamsInEffect() Params { return c.params }

// NewServer adds a server machine with the given data-path deployment.
func (c *ClusterSim) NewServer(name string, d Deployment) *Server {
	return rdma.NewServer(c.net, name, d)
}

// NewClientMachine adds a client machine.
func (c *ClusterSim) NewClientMachine(name string) *ClientMachine {
	return rdma.NewClient(c.net, name)
}

// Go starts a simulated process (an application thread).
func (c *ClusterSim) Go(name string, fn func(p *Proc)) {
	c.engine.Go(name, fn)
}

// Run drives the simulation until no events remain.
func (c *ClusterSim) Run() { c.engine.Run() }

// --- Application constructors (thin wrappers over the internal packages) ---
//
// A store knows the server it is provisioned on only as a host: keep the
// *Server you built to connect clients to it, trace it or read its
// counters.

// KVOptions sizes a PRISM-KV store for n objects of up to valueSize bytes.
func KVOptions(n int64, valueSize int) kv.Options { return kv.DefaultOptions(n, valueSize) }

// NewKVServer provisions PRISM-KV on a server NIC.
func NewKVServer(s *Server, opts kv.Options) (*KVServer, error) { return kv.NewServerOn(s, opts) }

// KVClient is a PRISM-KV client (§6). Its Get, Put and FlushFrees still
// take the calling process, which they ignore: the connection parks the
// engine's running process. Its other methods are kv.Client's, and
// KVClient.Client is the client without the process argument.
type KVClient struct{ *kv.Client }

// NewKVClient builds a PRISM-KV client over a connection.
func NewKVClient(conn *Conn, meta kv.Meta, clientID uint16) *KVClient {
	return &KVClient{kv.NewClient(conn, meta, clientID)}
}

// Get, Put and FlushFrees are kv.Client's, with the process argument
// the repository's benchmark still passes.
func (c *KVClient) Get(_ *Proc, key int64) ([]byte, error)     { return c.Client.Get(key) }
func (c *KVClient) Put(_ *Proc, key int64, value []byte) error { return c.Client.Put(key, value) }
func (c *KVClient) FlushFrees(*Proc) error                     { return c.Client.FlushFrees() }

// NewChainStore provisions the linked-chain layout on a server NIC
// (DESIGN.md §14): Buckets head cells pointing at pre-linked Depth-node chains,
// the structure the CHASE verb program walks in one round trip.
func NewChainStore(s *Server, opts ChainOptions) (*ChainStore, error) {
	return kv.NewChainStoreOn(s, opts)
}

// NewChainClient wraps a connection to a chain store. The client offers
// ChaseGet (one CHASE program round trip), HopGet (the classic one-sided
// walk, one round trip per hop), and RPCGet (host CPU walks the chain).
func NewChainClient(conn *Conn, meta ChainMeta) *ChainClient {
	return kv.NewChainClient(conn, meta)
}

// NewPilafServer provisions the Pilaf baseline on a server NIC.
func NewPilafServer(s *Server, opts kv.Options) (*PilafServer, error) {
	return kv.NewPilafServer(s, opts)
}

// NewPilafClient builds a Pilaf client. crcCost models the client-side CRC
// validation time (use ParamsInEffect().PilafCRCCost).
func NewPilafClient(conn *Conn, meta kv.PilafMeta, crcCost sim.Duration) *PilafClient {
	return kv.NewPilafClient(conn, meta, crcCost)
}

// RSOptions sizes a PRISM-RS replica.
type RSOptions = abd.ReplicaOptions

// NewRSReplica provisions one PRISM-RS replica on a server NIC.
func NewRSReplica(s *Server, opts RSOptions) (*RSReplica, error) { return abd.NewReplica(s, opts) }

// NewRSClient builds a PRISM-RS client over one connection per replica
// (pass an odd number, 2f+1).
func NewRSClient(id uint16, conns []*Conn, metas []abd.Meta) *RSClient {
	return abd.NewClient(id, transport.Issuers(conns), metas)
}

// TXOptions sizes a PRISM-TX shard.
type TXOptions = tx.ShardOptions

// NewTXShard provisions one PRISM-TX shard on a server NIC.
func NewTXShard(s *Server, opts TXOptions) (*TXShard, error) { return tx.NewShard(s, opts) }

// NewTXClient builds a transaction client over the given shards.
func (c *ClusterSim) NewTXClient(id uint16, conns []*Conn, metas []tx.Meta) *TXClient {
	return tx.NewClient(id, transport.Issuers(conns), metas)
}

// NewFarmServer provisions the FaRM baseline on a server NIC.
func NewFarmServer(s *Server, opts TXOptions) (*FarmServer, error) {
	return tx.NewFarmServer(s, opts)
}

// NewFarmClient builds a FaRM transaction client.
func NewFarmClient(id uint16, conns []*Conn, metas []tx.FarmMeta) *FarmClient {
	return tx.NewFarmClient(id, transport.Issuers(conns), metas)
}

package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"weak"

	"prism/internal/abd"
	"prism/internal/fabric"
	"prism/internal/kv"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/tx"
	"prism/internal/workload"
)

// The systems under measurement. Each has one load* constructor that
// builds and bulk-loads it on a network, one template that captures a
// load* result once per sweep, and one builder that forks the template
// onto a point's fabric and attaches clients. A store knows its machine
// only as a transport.Host, so whoever builds the rdma.Server keeps it:
// the constructors return it beside the store, and clients connect to it.

// ---------------------------------------------------------------------------
// Template sets
//
// Each distinct cluster setup is built at most once per sweep and every
// point of the sweep gets a copy-on-write fork of it. The key is the setup
// identity — exactly what the built state depends on (system, object
// count, value size, shard count) and nothing it doesn't: deployment,
// point seed, client count, and workload mix are instantiation-time
// choices. Loaded values are seed-independent (workload value bytes derive
// from key and version only), which is what makes the built image
// shareable across points in the first place. The set belongs to the
// sweep that made it (Config.templates) and holds its images strongly, so
// a figure keeps its own systems' images while it runs.
//
// Beside the sets, liveTemplates indexes every image still in memory by
// key through a weak pointer. A sweep adopts an image another sweep built
// if the collector has not freed it yet (Fig 4 runs on Fig 3's PRISM-KV
// and Pilaf), and builds and registers one otherwise. The index holds
// nothing alive: once no set holds an image it goes at the next
// collection, and a cleanup then deletes its index entry.

type templateKey struct {
	system    string
	keys      int64
	valueSize int
	shards    int
}

type templateEntry struct {
	once sync.Once
	val  any
}

// templateSet is the images one sweep has built or adopted. The zero
// value is empty and ready to use.
type templateSet struct {
	mu sync.Mutex
	m  map[templateKey]*templateEntry
}

func (s *templateSet) entry(key templateKey) *templateEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[templateKey]*templateEntry)
	}
	e := s.m[key]
	if e == nil {
		e = liveTemplates.adopt(key)
		s.m[key] = e
	}
	return e
}

// liveTemplates is the weak index of every set's images.
var liveTemplates = templateIndex{m: make(map[templateKey]weak.Pointer[templateEntry])}

type templateIndex struct {
	mu sync.Mutex
	m  map[templateKey]weak.Pointer[templateEntry]
}

// adopt returns the still-live entry of key, or registers a new one.
func (x *templateIndex) adopt(key templateKey) *templateEntry {
	x.mu.Lock()
	defer x.mu.Unlock()
	if e := x.m[key].Value(); e != nil {
		return e
	}
	e := &templateEntry{}
	wp := weak.Make(e)
	x.m[key] = wp
	runtime.AddCleanup(e, func(key templateKey) { x.forget(key, wp) }, key)
	return e
}

// forget deletes key's index entry if it is still wp: a later sweep may
// have registered a new image under the key before wp's cleanup ran.
func (x *templateIndex) forget(key templateKey, wp weak.Pointer[templateEntry]) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.m[key] == wp {
		delete(x.m, key)
	}
}

// templateBuilt, when set, sees every template as it is built. It is a
// test hook: nil outside tests.
var templateBuilt func(key templateKey, val any)

// cachedTemplate returns the template of system at cfg's scale, built on
// a throwaway fabric: building never touches a measurement point's engine
// or RNG stream, so fresh builds and template forks are bit-identical
// (TestForkedClusterMatchesFresh). With a template set in cfg the image
// is built at most once per set, and not at all while another set's image
// of the key is live: concurrent workers needing the same key block on one
// build, and workers on different keys build concurrently. Without one
// every call builds afresh.
func cachedTemplate[T any](system string, cfg Config, shards int, build func(v *env) T) T {
	key := templateKey{system: system, keys: cfg.Keys, valueSize: cfg.ValueSize, shards: shards}
	fresh := func() T {
		val := build(newEnv(cfg, 0, load{}))
		if templateBuilt != nil {
			templateBuilt(key, val)
		}
		return val
	}
	if cfg.templates == nil {
		return fresh()
	}
	entry := cfg.templates.entry(key)
	entry.once.Do(func() { entry.val = fresh() })
	return entry.val.(T)
}

// loadKeys installs keys [0, n) at version 0 through put, the bulk load
// before an experiment (as the paper does). Every value is built in one
// buffer: put copies it into the store and keeps no reference.
func loadKeys(valueSize int, n int64, put func(key int64, value []byte) error) {
	gen := workload.NewGenerator(workload.Mix{Keys: n, ReadFrac: 1, ValueSize: valueSize}, 0)
	var value []byte
	for k := int64(0); k < n; k++ {
		value = gen.AppendValue(value[:0], k, 0)
		must(put(k, value))
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// image is a loaded store in a template set: the server's sealed
// memory, free lists and temp key, and the store's control-plane
// description — everything a store is. An instance is fork plus the
// store's Attach.
type image[M any] struct {
	nic  *rdma.ServerTemplate
	meta M
}

func capture[M any](nic *rdma.Server, meta M) image[M] { return image[M]{nic.Capture(), meta} }

func (im image[M]) fork(net *fabric.Network, name string, deploy model.Deployment) *rdma.Server {
	return rdma.NewServerFromTemplate(net, name, deploy, im.nic)
}

// ---------------------------------------------------------------------------
// PRISM-KV and Pilaf (Figures 3, 4)

func loadKV(net *fabric.Network, cfg Config) (*rdma.Server, kv.Meta) {
	nic := rdma.NewServer(net, "server", model.SoftwarePRISM)
	srv, err := kv.NewServerOn(nic, kv.DefaultOptions(cfg.Keys, cfg.ValueSize))
	must(err)
	loadKeys(cfg.ValueSize, cfg.Keys, srv.Load)
	return nic, srv.Meta()
}

func kvTemplate(cfg Config) image[kv.Meta] {
	return cachedTemplate("prismkv", cfg, 0, func(v *env) image[kv.Meta] {
		return capture(loadKV(v.net, cfg))
	})
}

// kvClients makes the PRISM-KV clients of the store meta describes on nic.
func kvClients(nic *rdma.Server, meta kv.Meta) func(m *rdma.Client, id int) Store {
	return func(m *rdma.Client, id int) Store {
		c := kv.NewClient(m.Connect(nic), meta, uint16(id+1))
		c.Reclaim.Ctrl = m.Connect(nic) // reclamation rides a control QP
		c.Reclaim.Batch = 4             // keep unreclaimed churn small under heavy write load
		return c
	}
}

// forkKV instantiates the loaded PRISM-KV store on v's fabric.
func (v *env) forkKV() (*rdma.Server, kv.Meta) {
	im := kvTemplate(v.cfg)
	nic := im.fork(v.net, "server", model.SoftwarePRISM)
	kv.AttachServer(nic, im.meta)
	return nic, im.meta
}

// prismKV builds PRISM-KV.
func prismKV(cfg Config, seed int64, w load) cluster {
	v := newEnv(cfg, seed, w)
	nic, meta := v.forkKV()
	return v.mix(kvClients(nic, meta))
}

// KVCluster builds the standard one-server PRISM-KV cluster at cfg's scale
// (software PRISM, the paper's client fleet, point seed 42) and
// returns its engine with client 0. It is the entry point for measuring
// one simulated operation end to end: spawn a process on the engine that
// drives the store, then run the engine.
func KVCluster(cfg Config) (*sim.Engine, Store) {
	v := newEnv(cfg, 42, load{})
	nic, meta := v.forkKV()
	return v.e, kvClients(nic, meta)(v.clientMachines()[0], 0)
}

func loadPilaf(net *fabric.Network, cfg Config) (*rdma.Server, kv.PilafMeta) {
	nic := rdma.NewServer(net, "server", model.SoftwarePRISM)
	srv, err := kv.NewPilafServer(nic, kv.DefaultOptions(cfg.Keys, cfg.ValueSize))
	must(err)
	loadKeys(cfg.ValueSize, cfg.Keys, srv.Load)
	return nic, srv.Meta()
}

func pilafTemplate(cfg Config) image[kv.PilafMeta] {
	return cachedTemplate("pilaf", cfg, 0, func(v *env) image[kv.PilafMeta] {
		return capture(loadPilaf(v.net, cfg))
	})
}

// pilafCluster attaches Pilaf clients to the store meta describes on nic.
func (v *env) pilafCluster(nic *rdma.Server, meta kv.PilafMeta) cluster {
	return v.mix(func(m *rdma.Client, _ int) Store {
		return kv.NewPilafClient(m.Connect(nic), meta, v.p.PilafCRCCost)
	})
}

func pilaf(deploy model.Deployment) builder {
	return func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w)
		im := pilafTemplate(cfg)
		nic := im.fork(v.net, "server", deploy)
		kv.AttachPilafServer(nic, im.meta)
		return v.pilafCluster(nic, im.meta)
	}
}

// ---------------------------------------------------------------------------
// PRISM-RS and ABDLOCK (Figures 6, 7)

const nReplicas = 3

func replicaName(i int) string { return fmt.Sprintf("replica-%d", i) }

func loadReplica(net *fabric.Network, cfg Config, name string) (*rdma.Server, abd.Meta) {
	nic := rdma.NewServer(net, name, model.SoftwarePRISM)
	r, err := abd.NewReplica(nic, abd.ReplicaOptions{
		NBlocks:   cfg.Keys,
		BlockSize: cfg.ValueSize,
		// Generous slack: writes in flight before reclamation lands.
		ExtraBuffers: 4096,
	})
	must(err)
	return nic, r.Meta()
}

// rsTemplate serves all three replicas of a group: they are identical
// after initialization, so each is its own COW fork of one image.
func rsTemplate(cfg Config) image[abd.Meta] {
	return cachedTemplate("prismrs", cfg, 0, func(v *env) image[abd.Meta] {
		return capture(loadReplica(v.net, cfg, "replica"))
	})
}

// group is a replica group or shard set as clients see it: the servers to
// connect to and the description of the store on each.
type group[M any] struct {
	nics  []*rdma.Server
	metas []M
}

func (g *group[M]) add(nic *rdma.Server, meta M) {
	g.nics, g.metas = append(g.nics, nic), append(g.metas, meta)
}

// connect opens one QP from m to every server of the group.
func (g *group[M]) connect(m *rdma.Client) []transport.Issuer {
	conns := make([]transport.Issuer, len(g.nics))
	for i, nic := range g.nics {
		conns[i] = m.Connect(nic)
	}
	return conns
}

// controlQPs opens a second QP to every server of the group and routes
// the client's reclamation RPCs over them.
func (g *group[M]) controlQPs(m *rdma.Client, recl []transport.Reclaimer) {
	for i, conn := range g.connect(m) {
		recl[i].Ctrl = conn
	}
}

// rsCluster attaches PRISM-RS clients to a replica group.
func (v *env) rsCluster(replicas group[abd.Meta]) cluster {
	return v.mix(func(m *rdma.Client, id int) Store {
		c := abd.NewClient(uint16(id+1), replicas.connect(m), replicas.metas)
		replicas.controlQPs(m, c.Reclaim) // reclamation rides control QPs
		for i := range c.Reclaim {
			c.Reclaim[i].Batch = 8
		}
		return c
	})
}

// prismRS builds PRISM-RS over nReplicas forks of the loaded replica.
func prismRS(cfg Config, seed int64, w load) cluster {
	v := newEnv(cfg, seed, w)
	im := rsTemplate(cfg)
	var replicas group[abd.Meta]
	for i := 0; i < nReplicas; i++ {
		nic := im.fork(v.net, replicaName(i), model.SoftwarePRISM)
		abd.AttachReplica(nic, im.meta)
		replicas.add(nic, im.meta)
	}
	return v.rsCluster(replicas)
}

func lockTemplate(cfg Config) image[abd.LockMeta] {
	return cachedTemplate("abdlock", cfg, 0, func(v *env) image[abd.LockMeta] {
		nic := rdma.NewServer(v.net, "replica", model.SoftwarePRISM)
		r, err := abd.NewLockReplica(nic, cfg.Keys, cfg.ValueSize)
		must(err)
		return capture(nic, r.Meta())
	})
}

func abdlock(deploy model.Deployment) builder {
	return func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w)
		im := lockTemplate(cfg)
		var replicas group[abd.LockMeta]
		for i := 0; i < nReplicas; i++ {
			// A lock replica is passive: its fork has nothing to attach.
			replicas.add(im.fork(v.net, replicaName(i), deploy), im.meta)
		}
		return v.mix(func(m *rdma.Client, id int) Store {
			// Backoff jitter draws from a per-client RNG stream derived
			// from the point seed, so the draws one client sees do not
			// depend on how the other clients interleave. The
			// complemented base keeps the stream decorrelated from the
			// client's workload generator, which uses clientSeed(seed, id)
			// directly.
			jit := rand.New(rand.NewSource(clientSeed(^seed, id))).Float64
			return abd.NewLockClient(uint16(id+1), replicas.connect(m), replicas.metas, jit)
		})
	}
}

// ---------------------------------------------------------------------------
// PRISM-TX and FaRM (Figures 9, 10, ext-*)

// loadShards builds one PRISM-TX shard per name, each with room for slots
// keys, and loads key k on shard k mod len(names).
func loadShards(net *fabric.Network, cfg Config, names []string, slots int64) group[tx.Meta] {
	var g group[tx.Meta]
	shards := make([]*tx.Shard, len(names))
	for i, name := range names {
		nic := rdma.NewServer(net, name, model.SoftwarePRISM)
		s, err := tx.NewShard(nic, tx.ShardOptions{NSlots: slots, MaxValue: cfg.ValueSize, ExtraBuffers: 8192})
		must(err)
		shards[i] = s
		g.add(nic, s.Meta())
	}
	loadKeys(cfg.ValueSize, cfg.Keys, func(k int64, value []byte) error {
		return shards[k%int64(len(shards))].Load(k, value)
	})
	return g
}

// loadTX is the single shard of Figures 9 and 10 (NSlots = Keys). A
// one-shard loadTXCluster is a different image (NSlots = Keys + 1), so the
// two keep distinct templates.
func loadTX(net *fabric.Network, cfg Config) group[tx.Meta] {
	return loadShards(net, cfg, []string{"shard"}, cfg.Keys)
}

func shardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	return names
}

// loadTXCluster is the nShards cluster of the extension figures (shard i
// holds keys k where k mod nShards == i, so each shard's image is
// distinct).
func loadTXCluster(net *fabric.Network, cfg Config, nShards int) group[tx.Meta] {
	return loadShards(net, cfg, shardNames(nShards), cfg.Keys/int64(nShards)+1)
}

// shardTemplates is the template of a loaded shard group: one image per
// shard, in shard order.
func shardTemplates(system string, cfg Config, nShards int, load func(net *fabric.Network) group[tx.Meta]) []image[tx.Meta] {
	return cachedTemplate(system, cfg, nShards, func(v *env) []image[tx.Meta] {
		g := load(v.net)
		ims := make([]image[tx.Meta], len(g.nics))
		for i, nic := range g.nics {
			ims[i] = capture(nic, g.metas[i])
		}
		return ims
	})
}

func txTemplate(cfg Config) []image[tx.Meta] {
	return shardTemplates("prismtx", cfg, 0, func(net *fabric.Network) group[tx.Meta] { return loadTX(net, cfg) })
}

func txClusterTemplates(cfg Config, nShards int) []image[tx.Meta] {
	return shardTemplates("txcluster", cfg, nShards, func(net *fabric.Network) group[tx.Meta] {
		return loadTXCluster(net, cfg, nShards)
	})
}

// forkShards instantiates a shard group's images on v's fabric under names.
func (v *env) forkShards(ims []image[tx.Meta], names []string) group[tx.Meta] {
	var g group[tx.Meta]
	for i, im := range ims {
		nic := im.fork(v.net, names[i], model.SoftwarePRISM)
		tx.AttachShard(nic, im.meta)
		g.add(nic, im.meta)
	}
	return g
}

// txCluster attaches PRISM-TX clients to shards: one data and one control
// QP per shard per client.
func (v *env) txCluster(shards group[tx.Meta]) cluster {
	return v.rmw(func(m *rdma.Client, id int) func() txHandle {
		c := tx.NewClient(uint16(id+1), shards.connect(m), shards.metas)
		shards.controlQPs(m, c.Reclaim)
		return func() txHandle { return c.Begin() }
	})
}

func prismTX(cfg Config, seed int64, w load) cluster {
	v := newEnv(cfg, seed, w)
	return v.txCluster(v.forkShards(txTemplate(cfg), []string{"shard"}))
}

// prismTXCluster is the nShards builder. A load's keysPerTx only shapes
// client transactions, not the loaded data, so all keysPerTx variants
// share one template.
func prismTXCluster(nShards int) builder {
	return func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w)
		return v.txCluster(v.forkShards(txClusterTemplates(cfg, nShards), shardNames(nShards)))
	}
}

func farmTemplate(cfg Config) image[tx.FarmMeta] {
	return cachedTemplate("farm", cfg, 0, func(v *env) image[tx.FarmMeta] {
		nic := rdma.NewServer(v.net, "shard", model.SoftwarePRISM)
		srv, err := tx.NewFarmServer(nic, tx.ShardOptions{NSlots: cfg.Keys, MaxValue: cfg.ValueSize})
		must(err)
		loadKeys(cfg.ValueSize, cfg.Keys, srv.Load)
		return capture(nic, srv.Meta())
	})
}

func farm(deploy model.Deployment) builder {
	return func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w)
		im := farmTemplate(cfg)
		nic := im.fork(v.net, "shard", deploy)
		tx.AttachFarmServer(nic, im.meta)
		return v.rmw(func(m *rdma.Client, id int) func() txHandle {
			c := tx.NewFarmClient(uint16(id+1), []transport.Issuer{m.Connect(nic)}, []tx.FarmMeta{im.meta})
			return func() txHandle { return c.Begin() }
		})
	}
}

package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"prism/internal/abd"
	"prism/internal/fabric"
	"prism/internal/kv"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/tx"
	"prism/internal/workload"
)

// The systems under measurement. Each has one load* constructor that
// builds and bulk-loads it on a network, one template that captures a
// load* result once per process, and one builder that forks the template
// onto a point's fabric and attaches clients.

// ---------------------------------------------------------------------------
// Template cache
//
// Each distinct cluster setup is built once per process and every
// measurement point gets a copy-on-write fork of it. The key is the setup
// identity — exactly what the built state depends on (system, object
// count, value size, shard count) and nothing it doesn't: deployment,
// point seed, client count, and workload mix are instantiation-time
// choices. Loaded values are seed-independent (workload value bytes derive
// from key and version only), which is what makes the built image
// shareable across points in the first place.

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

var templateCache = struct {
	sync.Mutex
	m map[templateKey]*templateEntry
}{m: make(map[templateKey]*templateEntry)}

// cachedTemplate returns the template of system at cfg's scale, building
// it at most once per process on a throwaway fabric: building never
// touches a measurement point's engine or RNG stream, so fresh builds and
// template forks are bit-identical (TestForkedClusterMatchesFresh).
// Concurrent workers needing the same key block on one build; workers on
// different keys build concurrently.
func cachedTemplate[T any](system string, cfg Config, shards int, build func(v *env) T) T {
	key := templateKey{system: system, keys: cfg.Keys, valueSize: cfg.ValueSize, shards: shards}
	templateCache.Lock()
	entry := templateCache.m[key]
	if entry == nil {
		entry = &templateEntry{}
		templateCache.m[key] = entry
	}
	templateCache.Unlock()
	entry.once.Do(func() { entry.val = build(newEnv(cfg, 0, load{}, rackFabric(cfg))) })
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

// ---------------------------------------------------------------------------
// PRISM-KV and Pilaf (Figures 3, 4, fig-scale)

func loadKV(net *fabric.Network, cfg Config) *kv.Server {
	srv, err := kv.NewServer(rdma.NewServer(net, "server", model.SoftwarePRISM),
		kv.DefaultOptions(cfg.Keys, cfg.ValueSize))
	must(err)
	loadKeys(cfg.ValueSize, cfg.Keys, srv.Load)
	return srv
}

func kvTemplate(cfg Config) *kv.Template {
	return cachedTemplate("prismkv", cfg, 0, func(v *env) *kv.Template {
		return loadKV(v.net, cfg).Capture()
	})
}

// kvTune adjusts how PRISM-KV clients attach to their server.
type kvTune struct {
	// singleQP gives each client exactly one QP and no control QP
	// (fig-scale: its x axis is connections per server and its GET-only
	// workload never reclaims). Otherwise reclamation rides a control QP.
	singleQP bool
	// slotCache turns on the §6.2 slot cache (AblationKVSlotCache).
	slotCache bool
}

// kvClients makes the PRISM-KV clients of srv.
func kvClients(srv *kv.Server, t kvTune) func(m *rdma.Client, id int) store {
	return func(m *rdma.Client, id int) store {
		c := kv.NewClient(m.Connect(srv.NIC()), srv.Meta(), uint16(id+1))
		if !t.singleQP {
			c.CtrlConn = &rdma.ProcConn{Conn: m.Connect(srv.NIC())}
			c.FreeBatch = 4 // keep unreclaimed churn small under heavy write load
		}
		c.SlotCache = t.slotCache
		return c
	}
}

// prismKV builds PRISM-KV under deploy on a fabric with cost model
// params(cfg): rackFabric for the paper figures, scaleFabric for fig-scale.
func prismKV(deploy model.Deployment, params func(Config) model.Params, t kvTune) builder {
	return func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w, params(cfg))
		return v.mix(kvClients(kv.NewServerFromTemplate(v.net, "server", deploy, kvTemplate(cfg)), t))
	}
}

func loadPilaf(net *fabric.Network, cfg Config) *kv.PilafServer {
	srv, err := kv.NewPilafServer(rdma.NewServer(net, "server", model.SoftwarePRISM),
		kv.DefaultOptions(cfg.Keys, cfg.ValueSize))
	must(err)
	loadKeys(cfg.ValueSize, cfg.Keys, srv.Load)
	return srv
}

func pilafTemplate(cfg Config) *kv.PilafTemplate {
	return cachedTemplate("pilaf", cfg, 0, func(v *env) *kv.PilafTemplate {
		return loadPilaf(v.net, cfg).Capture()
	})
}

// pilafCluster attaches Pilaf clients to srv.
func (v *env) pilafCluster(srv *kv.PilafServer) cluster {
	return v.mix(func(m *rdma.Client, _ int) store {
		return kv.NewPilafClient(m.Connect(srv.NIC()), srv.Meta(), v.p.PilafCRCCost)
	})
}

func pilaf(deploy model.Deployment, params func(Config) model.Params) builder {
	return func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w, params(cfg))
		return v.pilafCluster(kv.NewPilafServerFromTemplate(v.net, "server", deploy, pilafTemplate(cfg)))
	}
}

// ---------------------------------------------------------------------------
// PRISM-RS and ABDLOCK (Figures 6, 7)

const nReplicas = 3

func replicaName(i int) string { return fmt.Sprintf("replica-%d", i) }

func loadReplica(net *fabric.Network, cfg Config, name string) *abd.Replica {
	r, err := abd.NewReplica(rdma.NewServer(net, name, model.SoftwarePRISM), abd.ReplicaOptions{
		NBlocks:   cfg.Keys,
		BlockSize: cfg.ValueSize,
		// Generous slack: writes in flight before reclamation lands.
		ExtraBuffers: 4096,
	})
	must(err)
	return r
}

// rsTemplate serves all three replicas of a group: they are identical
// after initialization, so each is its own COW fork of one image.
func rsTemplate(cfg Config) *abd.Template {
	return cachedTemplate("prismrs", cfg, 0, func(v *env) *abd.Template {
		return loadReplica(v.net, cfg, "replica").Capture()
	})
}

// rsCluster attaches PRISM-RS clients to a replica group. skipWriteBack
// turns on the classic ABD read optimization (AblationABDWriteback).
func (v *env) rsCluster(replicas []*abd.Replica, skipWriteBack bool) cluster {
	return v.mix(func(m *rdma.Client, id int) store {
		conns := make([]*rdma.Conn, len(replicas))
		metas := make([]abd.Meta, len(replicas))
		for i, r := range replicas {
			conns[i] = m.Connect(r.NIC())
			metas[i] = r.Meta()
		}
		c := abd.NewClient(uint16(id+1), conns, metas)
		ctrl := make([]*rdma.Conn, len(replicas))
		for i, r := range replicas {
			ctrl[i] = m.Connect(r.NIC())
		}
		c.UseControlConns(ctrl) // reclamation rides control QPs
		c.FreeBatch = 8
		c.SkipWriteBackIfAgreed = skipWriteBack
		return c
	})
}

func prismRS(skipWriteBack bool) builder {
	return func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w, rackFabric(cfg))
		tmpl := rsTemplate(cfg)
		replicas := make([]*abd.Replica, nReplicas)
		for i := range replicas {
			replicas[i] = abd.NewReplicaFromTemplate(v.net, replicaName(i), model.SoftwarePRISM, tmpl)
		}
		return v.rsCluster(replicas, skipWriteBack)
	}
}

func lockTemplate(cfg Config) *abd.LockTemplate {
	return cachedTemplate("abdlock", cfg, 0, func(v *env) *abd.LockTemplate {
		r, err := abd.NewLockReplica(rdma.NewServer(v.net, "replica", model.SoftwarePRISM), cfg.Keys, cfg.ValueSize)
		must(err)
		return r.Capture()
	})
}

func abdlock(deploy model.Deployment) builder {
	return func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w, rackFabric(cfg))
		tmpl := lockTemplate(cfg)
		replicas := make([]*abd.LockReplica, nReplicas)
		for i := range replicas {
			replicas[i] = abd.NewLockReplicaFromTemplate(v.net, replicaName(i), deploy, tmpl)
		}
		return v.mix(func(m *rdma.Client, id int) store {
			conns := make([]*rdma.Conn, nReplicas)
			metas := make([]abd.LockMeta, nReplicas)
			for i, r := range replicas {
				conns[i] = m.Connect(r.NIC())
				metas[i] = r.Meta()
			}
			// Backoff jitter draws from a per-client RNG stream derived
			// from the point seed. A shared domain RNG would make the
			// draw sequence each client sees depend on which machines
			// share a domain — per-client streams keep output identical
			// at any affinity grouping. The complemented base keeps the
			// stream decorrelated from the client's workload generator,
			// which uses clientSeed(seed, id) directly.
			jit := rand.New(rand.NewSource(clientSeed(^seed, id))).Float64
			return abd.NewLockClient(uint16(id+1), conns, metas, jit)
		})
	}
}

// ---------------------------------------------------------------------------
// PRISM-TX and FaRM (Figures 9, 10, ext-*)

// loadShards builds one PRISM-TX shard per name, each with room for slots
// keys, and loads key k on shard k mod len(names).
func loadShards(net *fabric.Network, cfg Config, names []string, slots int64) []*tx.Shard {
	shards := make([]*tx.Shard, len(names))
	for i, name := range names {
		s, err := tx.NewShard(rdma.NewServer(net, name, model.SoftwarePRISM),
			tx.ShardOptions{NSlots: slots, MaxValue: cfg.ValueSize, ExtraBuffers: 8192})
		must(err)
		shards[i] = s
	}
	loadKeys(cfg.ValueSize, cfg.Keys, func(k int64, value []byte) error {
		return shards[k%int64(len(shards))].Load(k, value)
	})
	return shards
}

// loadTX is the single shard of Figures 9 and 10 (NSlots = Keys). A
// one-shard loadTXCluster is a different image (NSlots = Keys + 1), so the
// two keep distinct templates.
func loadTX(net *fabric.Network, cfg Config) *tx.Shard {
	return loadShards(net, cfg, []string{"shard"}, cfg.Keys)[0]
}

func txTemplate(cfg Config) *tx.Template {
	return cachedTemplate("prismtx", cfg, 0, func(v *env) *tx.Template {
		return loadTX(v.net, cfg).Capture()
	})
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
func loadTXCluster(net *fabric.Network, cfg Config, nShards int) []*tx.Shard {
	return loadShards(net, cfg, shardNames(nShards), cfg.Keys/int64(nShards)+1)
}

func txClusterTemplates(cfg Config, nShards int) []*tx.Template {
	return cachedTemplate("txcluster", cfg, nShards, func(v *env) []*tx.Template {
		tmpls := make([]*tx.Template, nShards)
		for i, s := range loadTXCluster(v.net, cfg, nShards) {
			tmpls[i] = s.Capture()
		}
		return tmpls
	})
}

// txCluster attaches PRISM-TX clients to shards: one data and one control
// QP per shard per client.
func (v *env) txCluster(shards []*tx.Shard) cluster {
	metas := make([]tx.Meta, len(shards))
	for i, s := range shards {
		metas[i] = s.Meta()
	}
	return v.rmw(func(m *rdma.Client, id int) func() txHandle {
		conns := make([]*rdma.Conn, len(shards))
		ctrl := make([]*rdma.Conn, len(shards))
		for i, s := range shards {
			conns[i] = m.Connect(s.NIC())
			ctrl[i] = m.Connect(s.NIC())
		}
		c := tx.NewClient(uint16(id+1), conns, metas)
		c.UseControlConns(ctrl)
		return func() txHandle { return c.Begin() }
	})
}

func prismTX(cfg Config, seed int64, w load) cluster {
	v := newEnv(cfg, seed, w, rackFabric(cfg))
	shard := tx.NewShardFromTemplate(v.net, "shard", model.SoftwarePRISM, txTemplate(cfg))
	return v.txCluster([]*tx.Shard{shard})
}

// prismTXCluster is the nShards builder. A load's keysPerTx only shapes
// client transactions, not the loaded data, so all keysPerTx variants
// share one template set.
func prismTXCluster(nShards int) builder {
	return func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w, rackFabric(cfg))
		names, shards := shardNames(nShards), make([]*tx.Shard, nShards)
		for i, tmpl := range txClusterTemplates(cfg, nShards) {
			shards[i] = tx.NewShardFromTemplate(v.net, names[i], model.SoftwarePRISM, tmpl)
		}
		return v.txCluster(shards)
	}
}

func farmTemplate(cfg Config) *tx.FarmTemplate {
	return cachedTemplate("farm", cfg, 0, func(v *env) *tx.FarmTemplate {
		srv, err := tx.NewFarmServer(rdma.NewServer(v.net, "shard", model.SoftwarePRISM),
			tx.ShardOptions{NSlots: cfg.Keys, MaxValue: cfg.ValueSize})
		must(err)
		loadKeys(cfg.ValueSize, cfg.Keys, srv.Load)
		return srv.Capture()
	})
}

func farm(deploy model.Deployment) builder {
	return func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w, rackFabric(cfg))
		srv := tx.NewFarmServerFromTemplate(v.net, "shard", deploy, farmTemplate(cfg))
		return v.rmw(func(m *rdma.Client, id int) func() txHandle {
			c := tx.NewFarmClient(uint16(id+1), []*rdma.Conn{m.Connect(srv.NIC())}, []tx.FarmMeta{srv.Meta()})
			return func() txHandle { return c.Begin() }
		})
	}
}

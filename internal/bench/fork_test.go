package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"prism/internal/abd"
	"prism/internal/alloc"
	"prism/internal/kv"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/tx"
)

// spaceChecksum hashes every byte of every region of a space.
func spaceChecksum(t *testing.T, s *memory.Space) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, r := range s.Regions() {
		fmt.Fprintf(h, "%x/%x/%x:", r.Base, r.Len, r.Key)
		h.Write(r.Bytes())
	}
	return h.Sum64()
}

// The fresh references: each builds and loads its servers directly on the
// measurement fabric, with the same load* constructor a template
// captures and the same client attachment the production builder uses.

func freshKV(cfg Config, seed int64, w load) cluster {
	v := newEnv(cfg, seed, w, rackFabric(cfg))
	nic, meta := loadKV(v.net, cfg)
	return v.mix(kvClients(nic, meta, kvTune{}))
}

func freshRS(cfg Config, seed int64, w load) cluster {
	v := newEnv(cfg, seed, w, rackFabric(cfg))
	var replicas group[abd.Meta]
	for i := 0; i < nReplicas; i++ {
		replicas.add(loadReplica(v.net, cfg, replicaName(i)))
	}
	return v.rsCluster(replicas, false)
}

func freshTX(cfg Config, seed int64, w load) cluster {
	v := newEnv(cfg, seed, w, rackFabric(cfg))
	return v.txCluster(loadTX(v.net, cfg))
}

func freshTXCluster(cfg Config, seed int64, w load) cluster {
	v := newEnv(cfg, seed, w, rackFabric(cfg))
	return v.txCluster(loadTXCluster(v.net, cfg, 2))
}

// TestForkedClusterMatchesFresh is the tentpole regression for template
// forking: a cluster instantiated from a copy-on-write template must
// produce identical points to one built directly on the measurement
// engine, both driven through the production runPoint. Loading is engine-
// and RNG-free for these systems, so the two paths are distinguishable
// only if forking leaks or loses state. The points of a subtest share one
// template set, as a sweep's do, and every point forks the image twice:
// a write leaking from one fork into the image would show in the next.
func TestForkedClusterMatchesFresh(t *testing.T) {
	cfg := tiny()
	cfg.templates = new(templateSet)
	builds := 0
	templateBuilt = func(templateKey, any) { builds++ }
	t.Cleanup(func() { templateBuilt = nil })
	for _, c := range []struct {
		name          string
		forked, fresh builder
		w             load
		key           func(clients int) string
		clients       []int
	}{
		// 50% writes so forks diverge hard from the template image.
		{"prism-kv", prismKV(model.SoftwarePRISM, rackFabric, kvTune{}), freshKV,
			load{readFrac: 0.5}, clientsKey, cfg.ClientCounts},
		{"prism-rs", prismRS(false), freshRS,
			load{readFrac: 0.5, theta: 0.4}, func(n int) string { return thetaKey(0.4, n) }, cfg.ClientCounts},
		{"prism-tx", prismTX, freshTX,
			load{theta: 0.8, keysPerTx: 1}, func(n int) string { return thetaKey(0.8, n) }, []int{32}},
		{"tx-cluster", prismTXCluster(2), freshTXCluster,
			load{keysPerTx: 2}, func(int) string { return "k" }, []int{16}},
	} {
		t.Run(c.name, func(t *testing.T) {
			builds = 0
			for _, n := range c.clients {
				fresh, _ := runPoint(cfg, "forkeq", system{c.name, c.fresh}, c.w, c.key(n), n)
				for fork := 1; fork <= 2; fork++ {
					forked, _ := runPoint(cfg, "forkeq", system{c.name, c.forked}, c.w, c.key(n), n)
					if forked != fresh {
						t.Fatalf("clients=%d, fork %d: forked %+v != fresh %+v", n, fork, forked, fresh)
					}
				}
				if fresh.Throughput == 0 {
					t.Fatalf("clients=%d: point measured nothing: %+v", n, fresh)
				}
			}
			if builds != 1 {
				t.Fatalf("the forked points built %d templates, want 1 shared by all of them", builds)
			}
		})
	}
}

// TestForkWritesInvisibleOutsideFork runs a write-heavy point twice from
// one template, the one it checksums (the test holds it in a template set
// of its own, as a sweep would), with checksums of the template's sealed
// memory taken around each run: the parent image must never change, and
// the two runs must agree exactly (a leak from the first fork into the
// template or a sibling would skew the second).
func TestForkWritesInvisibleOutsideFork(t *testing.T) {
	cfg := tiny()
	cfg.templates = new(templateSet)
	tmpl := kvTemplate(cfg)
	before := spaceChecksum(t, tmpl.nic.Snapshot().Space())

	builds := 0
	templateBuilt = func(templateKey, any) { builds++ }
	t.Cleanup(func() { templateBuilt = nil })
	writes := func() Point { // 100% writes
		pt, _ := runPoint(cfg, "fork-iso", paperKV, load{readFrac: 0}, clientsKey(32), 32)
		return pt
	}
	first := writes()
	if mid := spaceChecksum(t, tmpl.nic.Snapshot().Space()); mid != before {
		t.Fatalf("template bytes changed during a forked run: %#x -> %#x", before, mid)
	}
	if second := writes(); first != second {
		t.Fatalf("repeat run from same template differs: %+v vs %+v", first, second)
	}
	if after := spaceChecksum(t, tmpl.nic.Snapshot().Space()); after != before {
		t.Fatalf("template bytes changed after forked runs: %#x -> %#x", before, after)
	}
	if builds != 0 {
		t.Fatalf("the runs built %d templates of their own instead of forking the checksummed one", builds)
	}
}

// TestPilafTemplateBuildDeterministic builds the Pilaf template twice,
// independently (each in a template set of its own), and checks that a
// measurement point reproduces exactly from either and from a store
// loaded directly on the point's own fabric, and that the two images are
// the same bytes after a point forked each of them — Pilaf's bulk load is
// settled when it returns, so building it schedules nothing anywhere and
// the three are distinguishable only if the template (its forked memory,
// its read-through index) leaks or loses state.
func TestPilafTemplateBuildDeterministic(t *testing.T) {
	measure := func(cfg Config, build builder) Point {
		pt, _ := runPoint(cfg, "forkeq-pilaf", system{"Pilaf", build}, load{readFrac: 0.5}, clientsKey(32), 32)
		return pt
	}
	forked := pilaf(model.SoftwarePRISM, rackFabric)
	c1, c2 := tiny(), tiny()
	c1.templates, c2.templates = new(templateSet), new(templateSet)
	// c1's image is checksummed before its point forks it, c2's is built
	// inside its point.
	sum1 := spaceChecksum(t, pilafTemplate(c1).nic.Snapshot().Space())
	a := measure(c1, forked)
	if after := spaceChecksum(t, pilafTemplate(c1).nic.Snapshot().Space()); after != sum1 {
		t.Fatalf("template bytes changed during a forked run: %#x -> %#x", sum1, after)
	}
	b := measure(c2, forked)
	sum2 := spaceChecksum(t, pilafTemplate(c2).nic.Snapshot().Space())
	if a != b {
		t.Fatalf("point from rebuilt template differs: %+v vs %+v", a, b)
	}
	if sum1 != sum2 {
		t.Fatalf("independently built templates differ: %#x vs %#x", sum1, sum2)
	}
	fresh := measure(tiny(), func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w, rackFabric(cfg))
		return v.pilafCluster(loadPilaf(v.net, cfg))
	})
	if a != fresh || fresh.Throughput == 0 {
		t.Fatalf("forked %+v != fresh %+v", a, fresh)
	}
}

// slabCfg is a keyspace at which every store array spans several slabs
// (ABDLOCK's blocks were one 2.1 MB region at it).
func slabCfg() Config {
	cfg := tiny()
	cfg.Keys = 4096
	return cfg
}

// No store registers a region longer than a slab: free lists and Pilaf's
// extents carve slabs and alloc.RegisterArray cuts every array into them.
// (Connection temp regions and a buffer larger than a slab may exceed one;
// templates have neither.)
func TestTemplateRegionsFitInSlabs(t *testing.T) {
	cfg := slabCfg()
	templates := map[string]*rdma.ServerTemplate{
		"prism-kv": kvTemplate(cfg).nic,
		"pilaf":    pilafTemplate(cfg).nic,
		"prism-rs": rsTemplate(cfg).nic,
		"abdlock":  lockTemplate(cfg).nic,
		"prism-tx": txTemplate(cfg)[0].nic,
		"farm":     farmTemplate(cfg).nic,
	}
	for name, tmpl := range templates {
		regions := tmpl.Snapshot().Space().Regions()
		for _, r := range regions {
			if r.Len > alloc.SlabBytes {
				t.Errorf("%s: region at %#x is %d bytes, over a %d-byte slab", name, r.Base, r.Len, alloc.SlabBytes)
			}
		}
		if len(regions) < 3 {
			t.Errorf("%s: %d regions for %d keys", name, len(regions), cfg.Keys)
		}
	}
}

// privateBytes returns how many of the template's bytes fork has copied,
// failing t if it copied a region it never wrote or wrote one it did not
// copy: the first write to a region copies that region and nothing else.
func privateBytes(t *testing.T, name string, tmpl *rdma.ServerTemplate, fork *rdma.Server) uint64 {
	t.Helper()
	parent, space := tmpl.Snapshot().Space(), fork.Space()
	var n uint64
	for _, r := range parent.Regions() {
		pb, _ := parent.Peek(r.Key, r.Base, r.Len)
		fb, _ := space.Peek(r.Key, r.Base, r.Len)
		written, shared := !bytes.Equal(pb, fb), space.RegionAt(r.Base).Shared()
		switch {
		case written && shared:
			t.Errorf("%s: region at %#x (%d bytes) was written but still shares the template's bytes", name, r.Base, r.Len)
		case !written && !shared:
			t.Errorf("%s: region at %#x (%d bytes) was copied but never written", name, r.Base, r.Len)
		case written:
			n += r.Len
		}
	}
	return n
}

// One PUT on a forked PRISM-KV store, one ABDLOCK PUT (lock CAS, write,
// unlock) on forked replicas and one FaRM commit (LOCK RPC, validate,
// UPDATE+UNLOCK) copy only the slabs they write: at most two per server.
func TestForkCopiesOnlyWrittenSlabs(t *testing.T) {
	cfg := slabCfg()
	cfg.templates = new(templateSet) // forkKV and the check below share one image
	value := bytes.Repeat([]byte{0x5a}, cfg.ValueSize)
	v := newEnv(cfg, 1, load{}, rackFabric(cfg))
	cli := rdma.NewClient(v.net, "cli")

	kvNIC, kvMeta := v.forkKV(model.SoftwarePRISM)
	kvc := kv.NewClient(cli.Connect(kvNIC), kvMeta, 1)

	lock := lockTemplate(cfg)
	var replicas group[abd.LockMeta]
	for i := 0; i < nReplicas; i++ {
		replicas.add(lock.fork(v.net, replicaName(i), model.SoftwarePRISM), lock.meta)
	}
	lc := abd.NewLockClient(1, replicas.connect(cli), replicas.metas, func() float64 { return 0.5 })

	fm := farmTemplate(cfg)
	farmNIC := fm.fork(v.net, "shard", model.SoftwarePRISM)
	tx.AttachFarmServer(farmNIC, fm.meta)
	fc := tx.NewFarmClient(1, []transport.Issuer{cli.Connect(farmNIC)}, []tx.FarmMeta{fm.meta})

	v.e.Go("writes", func(p *sim.Proc) {
		if err := kvc.Put(7, value); err != nil {
			t.Errorf("PRISM-KV put: %v", err)
		}
		if err := lc.Put(7, value); err != nil {
			t.Errorf("ABDLOCK put: %v", err)
		}
		txn := fc.Begin()
		if _, err := txn.Read(7); err != nil {
			t.Errorf("FaRM read: %v", err)
		}
		txn.Write(7, value)
		if _, err := txn.Commit(); err != nil {
			t.Errorf("FaRM commit: %v", err)
		}
	})
	v.e.Run()

	check := func(name string, tmpl *rdma.ServerTemplate, fork *rdma.Server) uint64 {
		n := privateBytes(t, name, tmpl, fork)
		if n > 2*alloc.SlabBytes {
			t.Errorf("%s: one write copied %d bytes of the template, over two %d-byte slabs", name, n, alloc.SlabBytes)
		}
		return n
	}
	var total uint64
	total += check("prism-kv", kvTemplate(cfg).nic, kvNIC)
	for i, nic := range replicas.nics {
		total += check(replicaName(i), lock.nic, nic)
	}
	total += check("farm", fm.nic, farmNIC)
	if total == 0 {
		t.Fatal("the writes copied nothing: they did not reach the forks")
	}
}

// TestPilafTemplateBuildSchedulesNothing: the load leaves no event behind
// on the build fabric's engine, so the template needs no engine drain
// before Capture (it used to stage 3 tear-delayed stores per key).
func TestPilafTemplateBuildSchedulesNothing(t *testing.T) {
	cfg := tiny()
	v := newEnv(cfg, 0, load{}, rackFabric(cfg)) // as cachedTemplate builds
	loadPilaf(v.net, cfg)
	v.e.Run()
	if fired := v.e.Stats().EventsExecuted; fired != 0 {
		t.Fatalf("loading the Pilaf template scheduled %d events", fired)
	}
}

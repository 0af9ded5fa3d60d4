package bench

import (
	"fmt"
	"hash/fnv"
	"testing"

	"prism/internal/abd"
	"prism/internal/memory"
	"prism/internal/model"
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
// measurement fabric, with the same load* constructor the template cache
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
// only if forking leaks or loses state.
func TestForkedClusterMatchesFresh(t *testing.T) {
	cfg := tiny()
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
			for _, n := range c.clients {
				forked, _ := runPoint(cfg, "forkeq", system{c.name, c.forked}, c.w, c.key(n), n)
				fresh, _ := runPoint(cfg, "forkeq", system{c.name, c.fresh}, c.w, c.key(n), n)
				if forked != fresh {
					t.Fatalf("clients=%d: forked %+v != fresh %+v", n, forked, fresh)
				}
				if forked.Throughput == 0 {
					t.Fatalf("clients=%d: point measured nothing: %+v", n, forked)
				}
			}
		})
	}
}

// TestForkWritesInvisibleOutsideFork runs a write-heavy point twice from
// the same cached template, with checksums of the template's sealed memory
// taken around each run: the parent image must never change, and the two
// runs must agree exactly (a leak from the first fork into the template or
// a sibling would skew the second).
func TestForkWritesInvisibleOutsideFork(t *testing.T) {
	cfg := tiny()
	tmpl := kvTemplate(cfg)
	before := spaceChecksum(t, tmpl.nic.Snapshot().Space())

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
}

// resetTemplateCache drops every cached template, so the next point
// observes a cold build.
func resetTemplateCache() {
	templateCache.Lock()
	templateCache.m = make(map[templateKey]*templateEntry)
	templateCache.Unlock()
}

// TestPilafTemplateBuildDeterministic rebuilds the Pilaf template from
// scratch and checks a measurement point reproduces exactly, from either
// template and from a store loaded directly on the point's own fabric —
// Pilaf's bulk load is settled when it returns, so building it schedules
// nothing anywhere and the three are distinguishable only if the template
// (its forked memory, its read-through index) leaks or loses state.
func TestPilafTemplateBuildDeterministic(t *testing.T) {
	cfg := tiny()
	measure := func(build builder) Point {
		pt, _ := runPoint(cfg, "forkeq-pilaf", system{"Pilaf", build}, load{readFrac: 0.5}, clientsKey(32), 32)
		return pt
	}
	forked := pilaf(model.SoftwarePRISM, rackFabric)
	a := measure(forked)
	sum1 := spaceChecksum(t, pilafTemplate(cfg).NIC().Snapshot().Space())
	resetTemplateCache()
	b := measure(forked)
	sum2 := spaceChecksum(t, pilafTemplate(cfg).NIC().Snapshot().Space())
	if a != b {
		t.Fatalf("point from rebuilt template differs: %+v vs %+v", a, b)
	}
	if sum1 != sum2 {
		t.Fatalf("independently built templates differ: %#x vs %#x", sum1, sum2)
	}
	fresh := measure(func(cfg Config, seed int64, w load) cluster {
		v := newEnv(cfg, seed, w, rackFabric(cfg))
		return v.pilafCluster(loadPilaf(v.net, cfg))
	})
	if a != fresh || fresh.Throughput == 0 {
		t.Fatalf("forked %+v != fresh %+v", a, fresh)
	}
}

// TestPilafTemplateBuildSchedulesNothing: the load leaves no event behind
// on any domain of the build fabric, so the template needs no engine drain
// before Capture (it used to stage 3 tear-delayed stores per key).
func TestPilafTemplateBuildSchedulesNothing(t *testing.T) {
	cfg := tiny()
	v := newEnv(cfg, 0, load{}, rackFabric(cfg)) // as cachedTemplate builds
	loadPilaf(v.net, cfg)
	v.e.Run()
	if fired := v.e.World().Stats().EventsExecuted; fired != 0 {
		t.Fatalf("loading the Pilaf template scheduled %d events", fired)
	}
}

package bench

import (
	"fmt"
	"math/rand"

	"prism/internal/abd"
	"prism/internal/fabric"
	"prism/internal/kv"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/tx"
	"prism/internal/workload"
)

// kvStore abstracts PRISM-KV and Pilaf clients for the shared driver.
type kvStore interface {
	Get(p *sim.Proc, key int64) ([]byte, error)
	Put(p *sim.Proc, key int64, value []byte) error
}

// placement maps a client id to the event domain of the machine the
// client runs on. Driver processes must be spawned on their machine's
// domain so that under domain-parallel execution every client runs —
// and records measurements — alongside its own NIC.
type placement func(id int) *sim.Engine

// kvSystem builds a fresh loaded cluster and a per-client store factory.
type kvSystem struct {
	name  string
	build func(cfg Config, seed int64) (e *sim.Engine, mkClient func(id int) kvStore, place placement)
}

// clientMachines provisions the standard client-machine fleet. With
// Config.ClientsPerDomain > 1 machines are co-located into affinity
// groups of that size; with Config.CrossRack > 0 they are placed in rack
// 1, opposite the servers (which stay in rack 0). Neither knob changes
// measured output.
func clientMachines(cfg Config, net *fabric.Network) []*rdma.Client {
	return machineFleet(cfg, net, cfg.ClientMachines)
}

// machineFleet provisions n client machines under the config's placement
// knobs. clientMachines sizes the fleet for the paper figures; the
// fig-scale sweep passes Config.ScaleMachines instead.
func machineFleet(cfg Config, net *fabric.Network, n int) []*rdma.Client {
	machines := make([]*rdma.Client, n)
	for i := range machines {
		name := fmt.Sprintf("cli-%d", i)
		if cfg.ClientsPerDomain > 1 {
			machines[i] = rdma.NewClientInGroup(net, name, i/cfg.ClientsPerDomain)
		} else {
			machines[i] = rdma.NewClient(net, name)
		}
		if cfg.CrossRack > 0 {
			machines[i].Node().SetRack(1)
		}
	}
	return machines
}

// machinePlacement is the standard id -> machine-domain rule, the same
// modulo the client factories use to pick a machine.
func machinePlacement(machines []*rdma.Client) placement {
	return func(id int) *sim.Engine { return machines[id%len(machines)].Domain() }
}

func buildPRISMKV(cfg Config, seed int64) (*sim.Engine, func(int) kvStore, placement) {
	tmpl := kvTemplate(cfg)
	e, net, _ := measureNet(cfg, seed)
	srv := kv.NewServerFromTemplate(net, "server", model.SoftwarePRISM, tmpl)
	mk, place := kvClientFactory(cfg, net, srv)
	return e, mk, place
}

// buildPRISMKVFresh is the pre-template construction path: build and load
// the server directly on the measurement engine. Loading touches neither
// the engine nor its RNG, so buildPRISMKV is bit-identical to it —
// TestForkedClusterMatchesFresh holds the two against each other.
func buildPRISMKVFresh(cfg Config, seed int64) (*sim.Engine, func(int) kvStore, placement) {
	e, net, _ := measureNet(cfg, seed)
	srv, err := kv.NewServer(rdma.NewServer(net, "server", model.SoftwarePRISM),
		kv.DefaultOptions(cfg.Keys, cfg.ValueSize))
	if err != nil {
		panic(err)
	}
	gen := workload.NewGenerator(workload.Mix{Keys: cfg.Keys, ReadFrac: 1, ValueSize: cfg.ValueSize}, seed)
	for k := int64(0); k < cfg.Keys; k++ {
		if err := srv.Load(k, gen.Value(k, 0)); err != nil {
			panic(err)
		}
	}
	mk, place := kvClientFactory(cfg, net, srv)
	return e, mk, place
}

func kvClientFactory(cfg Config, net *fabric.Network, srv *kv.Server) (func(int) kvStore, placement) {
	machines := clientMachines(cfg, net)
	return func(id int) kvStore {
		m := machines[id%len(machines)]
		c := kv.NewClient(m.Connect(srv.NIC()), srv.Meta(), uint16(id+1))
		// Reclamation rides a control QP.
		c.CtrlConn = &rdma.ProcConn{Conn: m.Connect(srv.NIC())}
		c.FreeBatch = 4 // keep unreclaimed churn small under heavy write load
		return c
	}, machinePlacement(machines)
}

func buildPilaf(deploy model.Deployment) func(cfg Config, seed int64) (*sim.Engine, func(int) kvStore, placement) {
	return func(cfg Config, seed int64) (*sim.Engine, func(int) kvStore, placement) {
		tmpl := pilafTemplate(cfg)
		e, net, p := measureNet(cfg, seed)
		srv := kv.NewPilafServerFromTemplate(net, "server", deploy, tmpl)
		machines := clientMachines(cfg, net)
		crc := p.PilafCRCCost
		return e, func(id int) kvStore {
			m := machines[id%len(machines)]
			return kv.NewPilafClient(m.Connect(srv.NIC()), srv.Meta(), crc)
		}, machinePlacement(machines)
	}
}

// kvPoint runs one ladder point of a KV system: a self-contained
// simulation whose every RNG derives from the point's identity.
func kvPoint(sys kvSystem, cfg Config, figID string, readFrac float64, nClients int) (Point, Telemetry) {
	seed := PointSeed(cfg.Seed, figID, sys.name, fmt.Sprintf("clients=%d", nClients))
	e, mkClient, place := sys.build(cfg, seed)
	d := newLoadDriver(e, cfg)
	for i := 0; i < nClients; i++ {
		st := mkClient(i)
		gen := workload.NewGenerator(workload.Mix{
			Keys: cfg.Keys, ReadFrac: readFrac, ValueSize: cfg.ValueSize,
		}, clientSeed(seed, i))
		ver := 0
		d.spawn(place(i), fmt.Sprintf("c%d", i), func(p *sim.Proc) (int64, error) {
			kind, key := gen.Next()
			if kind == workload.OpGet {
				_, err := st.Get(p, key)
				return 0, err
			}
			ver++
			return 0, st.Put(p, key, gen.Value(key, ver))
		})
	}
	pt := d.run(nClients)
	return pt, d.telemetry(e)
}

// kvCurve sweeps the client ladder for one system and workload mix.
func kvCurve(sys kvSystem, cfg Config, figID string, readFrac float64) Series {
	jobs := make([]func() (Point, Telemetry), 0, len(cfg.ClientCounts))
	for _, nClients := range cfg.ClientCounts {
		jobs = append(jobs, func() (Point, Telemetry) { return kvPoint(sys, cfg, figID, readFrac, nClients) })
	}
	pts, _, _ := runPointJobs(cfg.Parallel, jobs)
	return Series{Name: sys.name, Points: pts}
}

// Fig3 reproduces Figure 3: PRISM-KV vs Pilaf (hardware and software
// RDMA), 100% reads, uniform distribution — throughput vs latency.
func Fig3(cfg Config) *Figure {
	return kvFigure(cfg, "fig3", "PRISM-KV vs Pilaf, 100% reads, uniform", 1.0)
}

// Fig4 reproduces Figure 4: the same comparison at 50% reads (YCSB-A).
func Fig4(cfg Config) *Figure {
	return kvFigure(cfg, "fig4", "PRISM-KV vs Pilaf, 50% reads, uniform", 0.5)
}

func kvFigure(cfg Config, id, title string, readFrac float64) *Figure {
	fig := &Figure{ID: id, Title: title, XLabel: "throughput (ops/s)", YLabel: "mean latency (µs)"}
	systems := []kvSystem{
		{"Pilaf", buildPilaf(model.HardwareRDMA)},
		{"Pilaf (software RDMA)", buildPilaf(model.SoftwarePRISM)},
		{"PRISM-KV", buildPRISMKV},
	}
	// One flat job list across all series, so the pool drains every point
	// of the figure concurrently, then reassemble per series.
	var jobs []func() (Point, Telemetry)
	for _, sys := range systems {
		for _, nClients := range cfg.ClientCounts {
			jobs = append(jobs, func() (Point, Telemetry) { return kvPoint(sys, cfg, id, readFrac, nClients) })
		}
	}
	pts, tels, wall := runPointJobs(cfg.Parallel, jobs)
	fig.PointWall, fig.PointTel = wall, tels
	for si, sys := range systems {
		fig.Series = append(fig.Series, Series{
			Name:   sys.name,
			Points: pts[si*len(cfg.ClientCounts) : (si+1)*len(cfg.ClientCounts)],
		})
	}
	return fig
}

// --- PRISM-RS / ABDLOCK (Figures 6, 7) ---

type blockStore interface {
	Get(p *sim.Proc, block int64) ([]byte, error)
	Put(p *sim.Proc, block int64, value []byte) error
}

type rsSystem struct {
	name  string
	build func(cfg Config, seed int64, theta float64) (*sim.Engine, func(int) blockStore, placement)
}

func buildPRISMRS(cfg Config, seed int64, _ float64) (*sim.Engine, func(int) blockStore, placement) {
	// The three replicas of a group are identical after initialization, so
	// one template serves all of them — each on its own COW fork.
	tmpl := rsTemplate(cfg)
	e, net, _ := measureNet(cfg, seed)
	const nReplicas = 3
	replicas := make([]*abd.Replica, nReplicas)
	for i := range replicas {
		replicas[i] = abd.NewReplicaFromTemplate(net, fmt.Sprintf("replica-%d", i), model.SoftwarePRISM, tmpl)
	}
	mk, place := rsClientFactory(cfg, net, replicas)
	return e, mk, place
}

// buildPRISMRSFresh is the pre-template path, kept for the fork-vs-fresh
// equivalence test (see buildPRISMKVFresh).
func buildPRISMRSFresh(cfg Config, seed int64, _ float64) (*sim.Engine, func(int) blockStore, placement) {
	e, net, _ := measureNet(cfg, seed)
	const nReplicas = 3
	replicas := make([]*abd.Replica, nReplicas)
	for i := range replicas {
		nic := rdma.NewServer(net, fmt.Sprintf("replica-%d", i), model.SoftwarePRISM)
		r, err := abd.NewReplica(nic, abd.ReplicaOptions{
			NBlocks:   cfg.Keys,
			BlockSize: cfg.ValueSize,
			// Generous slack: writes in flight before reclamation lands.
			ExtraBuffers: 4096,
		})
		if err != nil {
			panic(err)
		}
		replicas[i] = r
	}
	mk, place := rsClientFactory(cfg, net, replicas)
	return e, mk, place
}

func rsClientFactory(cfg Config, net *fabric.Network, replicas []*abd.Replica) (func(int) blockStore, placement) {
	machines := clientMachines(cfg, net)
	return func(id int) blockStore {
		m := machines[id%len(machines)]
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
		return c
	}, machinePlacement(machines)
}

func buildABDLOCK(deploy model.Deployment) func(cfg Config, seed int64, theta float64) (*sim.Engine, func(int) blockStore, placement) {
	return func(cfg Config, seed int64, _ float64) (*sim.Engine, func(int) blockStore, placement) {
		tmpl := lockTemplate(cfg)
		e, net, _ := measureNet(cfg, seed)
		const nReplicas = 3
		replicas := make([]*abd.LockReplica, nReplicas)
		for i := range replicas {
			replicas[i] = abd.NewLockReplicaFromTemplate(net, fmt.Sprintf("replica-%d", i), deploy, tmpl)
		}
		machines := clientMachines(cfg, net)
		return e, func(id int) blockStore {
			m := machines[id%len(machines)]
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
		}, machinePlacement(machines)
	}
}

// rsPoint runs one contention/ladder point of a replicated-storage system.
func rsPoint(sys rsSystem, cfg Config, figID string, theta float64, nClients int) (Point, Telemetry) {
	seed := PointSeed(cfg.Seed, figID, sys.name,
		fmt.Sprintf("theta=%.2f/clients=%d", theta, nClients))
	e, mkClient, place := sys.build(cfg, seed, theta)
	d := newLoadDriver(e, cfg)
	for i := 0; i < nClients; i++ {
		st := mkClient(i)
		gen := workload.NewGenerator(workload.Mix{
			Keys: cfg.Keys, ReadFrac: 0.5, ValueSize: cfg.ValueSize, Theta: theta,
		}, clientSeed(seed, i))
		ver := 0
		d.spawn(place(i), fmt.Sprintf("c%d", i), func(p *sim.Proc) (int64, error) {
			kind, key := gen.Next()
			if kind == workload.OpGet {
				_, err := st.Get(p, key)
				return 0, err
			}
			ver++
			return 0, st.Put(p, key, gen.Value(key, ver))
		})
	}
	pt := d.run(nClients)
	return pt, d.telemetry(e)
}

// Fig6 reproduces Figure 6: PRISM-RS vs lock-based ABD, 50% writes,
// uniform — throughput vs latency, 3 replicas.
func Fig6(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig6", Title: "PRISM-RS vs ABDLOCK, 50% writes, uniform, 3 replicas",
		XLabel: "throughput (ops/s)", YLabel: "mean latency (µs)",
	}
	systems := []rsSystem{
		{"ABDLOCK", buildABDLOCK(model.HardwareRDMA)},
		{"ABDLOCK (software RDMA)", buildABDLOCK(model.SoftwarePRISM)},
		{"PRISM-RS", buildPRISMRS},
	}
	var jobs []func() (Point, Telemetry)
	for _, sys := range systems {
		for _, nClients := range cfg.ClientCounts {
			jobs = append(jobs, func() (Point, Telemetry) { return rsPoint(sys, cfg, "fig6", 0, nClients) })
		}
	}
	pts, tels, wall := runPointJobs(cfg.Parallel, jobs)
	fig.PointWall, fig.PointTel = wall, tels
	for si, sys := range systems {
		fig.Series = append(fig.Series, Series{
			Name:   sys.name,
			Points: pts[si*len(cfg.ClientCounts) : (si+1)*len(cfg.ClientCounts)],
		})
	}
	return fig
}

// Fig7 reproduces Figure 7: latency under contention — 100 closed-loop
// clients, Zipf coefficient swept from 0 to 1.2.
func Fig7(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig7", Title: "PRISM-RS vs ABDLOCK under contention (100 clients)",
		XLabel: "Zipf coefficient", YLabel: "mean latency (µs)",
	}
	thetas := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95, 1.1, 1.2}
	systems := []rsSystem{
		{"ABDLOCK", buildABDLOCK(model.HardwareRDMA)},
		{"PRISM-RS", buildPRISMRS},
	}
	const clients = 100
	var jobs []func() (Point, Telemetry)
	for _, sys := range systems {
		for _, theta := range thetas {
			jobs = append(jobs, func() (Point, Telemetry) { return rsPoint(sys, cfg, "fig7", theta, clients) })
		}
	}
	pts, tels, wall := runPointJobs(cfg.Parallel, jobs)
	fig.PointWall, fig.PointTel = wall, tels
	for si, sys := range systems {
		s := Series{Name: sys.name}
		for ti, theta := range thetas {
			pt := pts[si*len(thetas)+ti]
			s.Points = append(s.Points, pt)
			s.Labels = append(s.Labels, fmt.Sprintf("zipf=%.2f  mean=%.2fµs  p99=%.2fµs",
				theta, float64(pt.Mean)/1e3, float64(pt.P99)/1e3))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// --- PRISM-TX / FaRM (Figures 9, 10) ---

type txSystem struct {
	name  string
	build func(cfg Config, seed int64) (*sim.Engine, func(int) txRunner, placement)
}

// txRunner executes one YCSB-T read-modify-write transaction, retrying
// aborts until commit; returns the number of aborts.
type txRunner func(p *sim.Proc, gen *workload.TxGenerator) (aborts int64, err error)

// txHandle is the per-transaction surface shared by PRISM-TX and FaRM.
type txHandle interface {
	Read(p *sim.Proc, key int64) ([]byte, error)
	Write(key int64, value []byte)
	Commit(p *sim.Proc) (tx.Timestamp, error)
}

// rmwRunner wraps a Begin function in the standard YCSB-T
// read-modify-write retry loop.
func rmwRunner(begin func() txHandle) txRunner {
	ver := 0
	return func(p *sim.Proc, g *workload.TxGenerator) (int64, error) {
		keys := g.Next()
		var aborts int64
		for {
			t := begin()
			for _, k := range keys {
				old, err := t.Read(p, k)
				if err != nil {
					return aborts, err
				}
				ver++
				nv := append([]byte(nil), old...)
				if len(nv) > 0 {
					nv[0] ^= byte(ver)
				}
				t.Write(k, nv)
			}
			if _, err := t.Commit(p); err == nil {
				return aborts, nil
			}
			aborts++
		}
	}
}

func buildPRISMTX(cfg Config, seed int64) (*sim.Engine, func(int) txRunner, placement) {
	tmpl := txTemplate(cfg)
	e, net, _ := measureNet(cfg, seed)
	shard := tx.NewShardFromTemplate(net, "shard", model.SoftwarePRISM, tmpl)
	mk, place := prismTXClientFactory(cfg, net, shard)
	return e, mk, place
}

// buildPRISMTXFresh is the pre-template path, kept for the fork-vs-fresh
// equivalence test (see buildPRISMKVFresh).
func buildPRISMTXFresh(cfg Config, seed int64) (*sim.Engine, func(int) txRunner, placement) {
	e, net, _ := measureNet(cfg, seed)
	shard, err := tx.NewShard(rdma.NewServer(net, "shard", model.SoftwarePRISM),
		tx.ShardOptions{NSlots: cfg.Keys, MaxValue: cfg.ValueSize, ExtraBuffers: 8192})
	if err != nil {
		panic(err)
	}
	gen := workload.NewTxGenerator(workload.TxMix{Keys: cfg.Keys, ValueSize: cfg.ValueSize, KeysPerTx: 1}, seed)
	for k := int64(0); k < cfg.Keys; k++ {
		if err := shard.Load(k, gen.Value(k, 0)); err != nil {
			panic(err)
		}
	}
	mk, place := prismTXClientFactory(cfg, net, shard)
	return e, mk, place
}

func prismTXClientFactory(cfg Config, net *fabric.Network, shard *tx.Shard) (func(int) txRunner, placement) {
	machines := clientMachines(cfg, net)
	return func(id int) txRunner {
		m := machines[id%len(machines)]
		c := tx.NewClient(uint16(id+1), []*rdma.Conn{m.Connect(shard.NIC())}, []tx.Meta{shard.Meta()})
		c.UseControlConns([]*rdma.Conn{m.Connect(shard.NIC())})
		return rmwRunner(func() txHandle { return c.Begin() })
	}, machinePlacement(machines)
}

func buildFaRM(deploy model.Deployment) func(cfg Config, seed int64) (*sim.Engine, func(int) txRunner, placement) {
	return func(cfg Config, seed int64) (*sim.Engine, func(int) txRunner, placement) {
		tmpl := farmTemplate(cfg)
		e, net, _ := measureNet(cfg, seed)
		srv := tx.NewFarmServerFromTemplate(net, "shard", deploy, tmpl)
		machines := clientMachines(cfg, net)
		return e, func(id int) txRunner {
			m := machines[id%len(machines)]
			c := tx.NewFarmClient(uint16(id+1), []*rdma.Conn{m.Connect(srv.NIC())}, []tx.FarmMeta{srv.Meta()})
			return rmwRunner(func() txHandle { return c.Begin() })
		}, machinePlacement(machines)
	}
}

// txPoint runs one contention/ladder point of a transactional system.
func txPoint(sys txSystem, cfg Config, figID string, theta float64, nClients int) (Point, Telemetry) {
	seed := PointSeed(cfg.Seed, figID, sys.name,
		fmt.Sprintf("theta=%.2f/clients=%d", theta, nClients))
	e, mkRunner, place := sys.build(cfg, seed)
	d := newLoadDriver(e, cfg)
	for i := 0; i < nClients; i++ {
		run := mkRunner(i)
		gen := workload.NewTxGenerator(workload.TxMix{
			Keys: cfg.Keys, ValueSize: cfg.ValueSize, KeysPerTx: 1, Theta: theta,
		}, clientSeed(seed, i))
		d.spawn(place(i), fmt.Sprintf("c%d", i), func(p *sim.Proc) (int64, error) {
			return run(p, gen)
		})
	}
	pt := d.run(nClients)
	return pt, d.telemetry(e)
}

// Fig9 reproduces Figure 9: PRISM-TX vs FaRM throughput-latency, YCSB-T
// read-modify-write transactions, uniform access, one shard.
func Fig9(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig9", Title: "PRISM-TX vs FaRM, YCSB-T, uniform",
		XLabel: "throughput (txns/s)", YLabel: "mean latency (µs)",
	}
	systems := []txSystem{
		{"FaRM", buildFaRM(model.HardwareRDMA)},
		{"FaRM (software RDMA)", buildFaRM(model.SoftwarePRISM)},
		{"PRISM-TX", buildPRISMTX},
	}
	var jobs []func() (Point, Telemetry)
	for _, sys := range systems {
		for _, nClients := range cfg.ClientCounts {
			jobs = append(jobs, func() (Point, Telemetry) { return txPoint(sys, cfg, "fig9", 0, nClients) })
		}
	}
	pts, tels, wall := runPointJobs(cfg.Parallel, jobs)
	fig.PointWall, fig.PointTel = wall, tels
	for si, sys := range systems {
		fig.Series = append(fig.Series, Series{
			Name:   sys.name,
			Points: pts[si*len(cfg.ClientCounts) : (si+1)*len(cfg.ClientCounts)],
		})
	}
	return fig
}

// Fig10 reproduces Figure 10: peak throughput under varying Zipf skew.
func Fig10(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig10", Title: "PRISM-TX vs FaRM peak throughput under contention",
		XLabel: "Zipf coefficient", YLabel: "peak throughput (txns/s)",
	}
	thetas := []float64{0, 0.4, 0.8, 1.0, 1.2, 1.4, 1.6}
	// Peak = best throughput over a short client ladder.
	ladder := []int{64, 192, 320}
	systems := []txSystem{
		{"FaRM", buildFaRM(model.HardwareRDMA)},
		{"FaRM (software RDMA)", buildFaRM(model.SoftwarePRISM)},
		{"PRISM-TX", buildPRISMTX},
	}
	// Flatten systems x thetas x ladder into one job list; the peak pick
	// over each ladder happens after reassembly.
	var jobs []func() (Point, Telemetry)
	for _, sys := range systems {
		for _, theta := range thetas {
			for _, nClients := range ladder {
				jobs = append(jobs, func() (Point, Telemetry) { return txPoint(sys, cfg, "fig10", theta, nClients) })
			}
		}
	}
	pts, tels, wall := runPointJobs(cfg.Parallel, jobs)
	fig.PointWall, fig.PointTel = wall, tels
	for si, sys := range systems {
		s := Series{Name: sys.name}
		for ti, theta := range thetas {
			base := (si*len(thetas) + ti) * len(ladder)
			best := pts[base]
			for _, pt := range pts[base+1 : base+len(ladder)] {
				if pt.Throughput > best.Throughput {
					best = pt
				}
			}
			s.Points = append(s.Points, best)
			s.Labels = append(s.Labels, fmt.Sprintf("zipf=%.2f  peak=%.0f txns/s (aborts %d)",
				theta, best.Throughput, best.Aborts))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

package bench

import (
	"fmt"
	"time"

	"prism/internal/fabric"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/tx"
	"prism/internal/workload"
)

// The figure harness, written once. The paper evaluates its three
// applications with one methodology (§6.3, §7.4, §8.3): closed-loop
// clients on a fleet of client machines, a throughput-latency ladder or a
// Zipf sweep, PRISM against one baseline. So a figure point here is one
// thing — a cluster, driven by runPoint — a figure is one sweep of points,
// and Figures lists every figure there is. systems.go builds the clusters;
// the Fig*/Ext*/Ablation* functions only say which systems, which x axis
// and which labels.

// Store is the GET/PUT surface shared by the key-value and block systems
// (PRISM-KV, Pilaf, PRISM-RS, ABDLOCK).
type Store interface {
	Get(key int64) ([]byte, error)
	Put(key int64, value []byte) error
}

// txHandle is the per-transaction surface shared by PRISM-TX and FaRM.
type txHandle interface {
	Read(key int64) ([]byte, error)
	Write(key int64, value []byte)
	Commit() (tx.Timestamp, error)
}

// clientOp is one closed-loop operation of one client: it returns the
// aborts it retried through (transactions; 0 otherwise) or an error that
// stops the client.
type clientOp = func(p *sim.Proc) (aborts int64, err error)

// fleet is a cluster's client machines; client id runs on machine
// id mod len.
type fleet []*rdma.Client

func (f fleet) machine(id int) *rdma.Client { return f[id%len(f)] }

// load is the closed-loop behaviour of a point's clients: GET/PUT systems
// read readFrac and theta, transactional systems theta and keysPerTx.
type load struct {
	readFrac  float64 // share of GETs in the GET/PUT mix
	theta     float64 // Zipf coefficient of the key choice (0 = uniform)
	keysPerTx int     // keys per YCSB-T read-modify-write transaction
}

// cluster is the one shape every builder returns: a loaded simulated
// system on its own engine, and the closed-loop operation of client id
// (its connections, workload generator and RNG streams all derived from
// the point seed the cluster was built under).
type cluster struct {
	e      *sim.Engine
	client func(id int) clientOp
}

// builder builds a system's cluster for one point: seed is the point's
// PointSeed, w what its clients do.
type builder = func(cfg Config, seed int64, w load) cluster

// system is one series of a figure: a name (which feeds PointSeed and the
// rendered CSV) and its builder.
type system struct {
	name  string
	build builder
}

// env is a point under construction: what was asked for and the fabric
// it runs on. Builders attach servers to net first and then call mix or
// rmw, which provision the client machines — node order is part of the
// fabric's delivery order, hence of the figures' bytes.
type env struct {
	cfg  Config
	seed int64
	w    load
	e    *sim.Engine
	net  *fabric.Network
	p    model.Params
}

// newEnv starts a point on a fresh engine and a fabric with cost model p.
func newEnv(cfg Config, seed int64, w load, p model.Params) *env {
	e := sim.NewEngine(seed)
	return &env{cfg: cfg, seed: seed, w: w, e: e, net: fabric.New(e, p), p: p}
}

// rackFabric is the cost model of the paper figures: calibrated defaults
// on the rack latency profile. CrossRack (zero in every paper figure) is
// the only Config knob that reaches it.
func rackFabric(cfg Config) model.Params {
	p := model.Default().WithNetwork(model.Rack)
	p.CrossRackExtra = cfg.CrossRack
	return p
}

// clientMachines provisions the Config.ClientMachines client fleet. With
// Config.CrossRack > 0 they are placed in rack 1, opposite the servers
// (which stay in rack 0).
func (v *env) clientMachines() fleet {
	machines := make(fleet, v.cfg.ClientMachines)
	for i := range machines {
		machines[i] = rdma.NewClient(v.net, fmt.Sprintf("cli-%d", i))
		if v.cfg.CrossRack > 0 {
			machines[i].Node().SetRack(1)
		}
	}
	return machines
}

// mix drives GET/PUT clients made by mk with the YCSB-style mix: each
// client draws (kind, key) from its own generator and PUTs a fresh version
// of the value.
func (v *env) mix(mk func(m *rdma.Client, id int) Store) cluster {
	f := v.clientMachines()
	return cluster{e: v.e, client: func(id int) clientOp {
		st := mk(f.machine(id), id)
		gen := workload.NewGenerator(workload.Mix{
			Keys: v.cfg.Keys, ReadFrac: v.w.readFrac, ValueSize: v.cfg.ValueSize, Theta: v.w.theta,
		}, clientSeed(v.seed, id))
		ver := 0
		return func(p *sim.Proc) (int64, error) {
			kind, key := gen.Next()
			if kind == workload.OpGet {
				_, err := st.Get(key)
				return 0, err
			}
			ver++
			return 0, st.Put(key, gen.Value(key, ver))
		}
	}}
}

// rmw drives transactional clients with YCSB-T: each operation is one
// read-modify-write transaction over keysPerTx keys, retried until it
// commits; the aborts on the way are reported with it. mk returns the
// client's Begin.
func (v *env) rmw(mk func(m *rdma.Client, id int) func() txHandle) cluster {
	f := v.clientMachines()
	return cluster{e: v.e, client: func(id int) clientOp {
		begin := mk(f.machine(id), id)
		gen := workload.NewTxGenerator(workload.TxMix{
			Keys: v.cfg.Keys, ValueSize: v.cfg.ValueSize, KeysPerTx: v.w.keysPerTx, Theta: v.w.theta,
		}, clientSeed(v.seed, id))
		ver := 0
		return func(p *sim.Proc) (int64, error) {
			keys := gen.Next()
			var aborts int64
			for {
				t := begin()
				for _, k := range keys {
					old, err := t.Read(k)
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
				if _, err := t.Commit(); err == nil {
					return aborts, nil
				}
				aborts++
			}
		}
	}}
}

// runPoint runs one figure point: a self-contained simulation whose every
// RNG derives from the point's identity (figure, series, pointKey — see
// PointSeed; the key strings are part of the figures' bytes). It builds
// the system's cluster, drives that many closed-loop clients through the
// configured windows and returns the summary with the point's telemetry.
func runPoint(cfg Config, figID string, sys system, w load, pointKey string, clients int) (Point, Telemetry) {
	seed := PointSeed(cfg.Seed, figID, sys.name, pointKey)
	cl := sys.build(cfg, seed, w)
	d := newLoadDriver(cl.e, cfg)
	for i := 0; i < clients; i++ {
		d.spawn(fmt.Sprintf("c%d", i), cl.client(i))
	}
	pt := d.run(clients)
	return pt, d.telemetry()
}

// latencyPoint is the Point of a single-op latency measurement (the
// microbenchmark figures): one client, every percentile the same value.
func latencyPoint(lat time.Duration) Point {
	return Point{Clients: 1, Mean: lat, Median: lat, P99: lat}
}

// sweep runs one point per (series, x) — flattened series-major into one
// job list, so the pool drains every point of the figure concurrently —
// and appends one Series per name to fig with its points in xs order,
// recording the per-point wall clock and telemetry in job order. Every
// point gets cfg with a template set of the sweep's own, so points of one
// system share one loaded image, and the images go when sweep returns.
// label, when non-nil, names each point (categorical figures, and figures
// whose labels carry telemetry counters).
func sweep[X any](cfg Config, fig *Figure, series []string, xs []X,
	point func(cfg Config, si int, x X) (Point, Telemetry),
	label func(si, xi int, pt Point, tel Telemetry) string) {
	cfg.templates = new(templateSet)
	pts := make([]Point, len(series)*len(xs))
	tels := make([]Telemetry, len(pts))
	jobs := make([]func(), 0, len(pts))
	for si := range series {
		for _, x := range xs {
			i := len(jobs)
			jobs = append(jobs, func() { pts[i], tels[i] = point(cfg, si, x) })
		}
	}
	fig.PointWall, fig.PointTel = runJobs(cfg.Parallel, jobs), tels
	for si, name := range series {
		s := Series{Name: name, Points: pts[si*len(xs) : (si+1)*len(xs)]}
		if label != nil {
			for xi, pt := range s.Points {
				s.Labels = append(s.Labels, label(si, xi, pt, tels[si*len(xs)+xi]))
			}
		}
		fig.Series = append(fig.Series, s)
	}
}

// ladder is the throughput-latency sweep the paper figures share: every
// system at every Config.ClientCounts rung under one load. pointKey
// formats the rung's PointSeed key.
func ladder(cfg Config, fig *Figure, systems []system, w load, pointKey func(clients int) string) *Figure {
	sweep(cfg, fig, names(systems), cfg.ClientCounts, func(cfg Config, si, n int) (Point, Telemetry) {
		return runPoint(cfg, fig.ID, systems[si], w, pointKey(n), n)
	}, nil)
	return fig
}

func names(systems []system) []string {
	out := make([]string, len(systems))
	for i, sys := range systems {
		out[i] = sys.name
	}
	return out
}

// clientsKey and thetaKey are the two PointSeed key formats of the paper
// figures.
func clientsKey(n int) string { return fmt.Sprintf("clients=%d", n) }
func thetaKey(theta float64, n int) string {
	return fmt.Sprintf("theta=%.2f/clients=%d", theta, n)
}

// FigureDef is one entry of the figure registry.
type FigureDef struct {
	Name string // what prismbench and BenchmarkFigure call it; Figure.ID
	Fn   func(Config) *Figure
	All  bool // rendered by `prismbench all`
}

// Figures is every figure the harness regenerates, in the order `all`
// renders them. All marks the members of `all`: the paper's figures, the
// §2.1 measurement and the two PRISM-TX extensions. fig-scale and
// fig-chase stay outside it — one enables the connection-scaling cost
// model, the other measures the linked-chain store, so neither's points
// are comparable to the paper-figure artifacts — as do the ablations.
// cmd/prismbench, the root BenchmarkFigure and the package's own
// determinism and golden tests all iterate this table.
var Figures = []FigureDef{
	{"rpcvsrdma", RPCvsRDMA, true},
	{"fig1", Fig1, true},
	{"fig2", Fig2, true},
	{"fig3", Fig3, true},
	{"fig4", Fig4, true},
	{"fig6", Fig6, true},
	{"fig7", Fig7, true},
	{"fig9", Fig9, true},
	{"fig10", Fig10, true},
	{"ext-shards", ExtShards, true},
	{"ext-multikey", ExtMultiKey, true},
	{"fig-scale", FigScale, false},
	{"fig-chase", FigChase, false},
	{"ablation-abd-writeback", AblationABDWriteback, false},
	{"ablation-kv-slotcache", AblationKVSlotCache, false},
	{"ablation-redirect-target", AblationRedirectTarget, false},
	{"ablation-freelist-classes", AblationFreelistClasses, false},
}

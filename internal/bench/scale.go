package bench

import (
	"fmt"
	"time"

	"prism/internal/fabric"
	"prism/internal/kv"
	"prism/internal/model"
	"prism/internal/sim"
	"prism/internal/workload"
)

// The fig-scale family sweeps connection count per server until the NIC
// connection-state model produces the Storm-style cliff: each closed-loop
// client owns exactly one queue pair, the fleet of client machines is
// fixed (Config.ScaleMachines), and the ladder (Config.ScaleClients)
// deliberately overshoots the modeled QP context cache. Within capacity
// the curves track the ordinary throughput figures; past it every arrival
// misses, cold fetches serialize on the context-fetch engine, and
// throughput collapses.
//
// The family is deliberately not part of the "all" figure order: its
// fabric enables model.WithConnScaling, so its points are not comparable
// to — and must not perturb — the paper-figure CSV artifacts.

// scaleNet is the fig-scale fabric: the standard measurement fabric with
// the connection-scaling model enabled and the hardware-class cache
// capacity optionally overridden (Config.QPCacheEntries).
func scaleNet(cfg Config, seed int64) (*sim.Engine, *fabric.Network, model.Params) {
	p := model.Default().WithNetwork(model.Rack).WithConnScaling()
	p.CrossRackExtra = cfg.CrossRack
	if cfg.QPCacheEntries > 0 {
		p.HWQPCacheEntries = cfg.QPCacheEntries
	}
	e := sim.NewEngine(seed)
	return e, fabric.New(e, p), p
}

// scaleTune clamps the measurement windows for the sweep: the high end of
// the ladder runs tens of thousands of closed-loop clients, so the paper
// figures' windows would burn wall-clock time without changing the shape
// of the cliff. Only tightens, never loosens, so tests can go smaller.
func scaleTune(cfg Config) Config {
	if cfg.Warmup > 50*time.Microsecond {
		cfg.Warmup = 50 * time.Microsecond
	}
	if cfg.Measure > time.Millisecond {
		cfg.Measure = time.Millisecond
	}
	if cfg.MaxOps == 0 {
		cfg.MaxOps = 40000
	}
	return cfg
}

// scaleSystem is one fig-scale series: a deployment whose QP cache class
// (model.Params.QPCacheFor) decides where its cliff lands.
type scaleSystem struct {
	name  string
	build func(cfg Config, seed int64) (*sim.Engine, func(int) kvStore, placement)
}

// buildScaleKV builds a PRISM-KV cluster on the connection-scaling
// fabric. Each client gets exactly one data QP and no control QP — the
// sweep's x axis is connections per server, and the GET-only workload
// never reclaims, so a control QP would only double the connection count
// for nothing.
func buildScaleKV(deploy model.Deployment) func(cfg Config, seed int64) (*sim.Engine, func(int) kvStore, placement) {
	return func(cfg Config, seed int64) (*sim.Engine, func(int) kvStore, placement) {
		tmpl := kvTemplate(cfg)
		e, net, _ := scaleNet(cfg, seed)
		srv := kv.NewServerFromTemplate(net, "server", deploy, tmpl)
		machines := machineFleet(cfg, net, cfg.ScaleMachines)
		return e, func(id int) kvStore {
			m := machines[id%len(machines)]
			return kv.NewClient(m.Connect(srv.NIC()), srv.Meta(), uint16(id+1))
		}, machinePlacement(machines)
	}
}

func buildScalePilaf(deploy model.Deployment) func(cfg Config, seed int64) (*sim.Engine, func(int) kvStore, placement) {
	return func(cfg Config, seed int64) (*sim.Engine, func(int) kvStore, placement) {
		tmpl := pilafTemplate(cfg)
		e, net, p := scaleNet(cfg, seed)
		srv := kv.NewPilafServerFromTemplate(net, "server", deploy, tmpl)
		machines := machineFleet(cfg, net, cfg.ScaleMachines)
		crc := p.PilafCRCCost
		return e, func(id int) kvStore {
			m := machines[id%len(machines)]
			return kv.NewPilafClient(m.Connect(srv.NIC()), srv.Meta(), crc)
		}, machinePlacement(machines)
	}
}

func scaleSystems() []scaleSystem {
	return []scaleSystem{
		{"Pilaf", buildScalePilaf(model.HardwareRDMA)},
		{"PRISM-KV", buildScaleKV(model.ProjectedHardwarePRISM)},
		{"PRISM-KV (software PRISM)", buildScaleKV(model.SoftwarePRISM)},
	}
}

// scalePoint runs one ladder point: nClients single-connection closed-loop
// GET clients against one server.
func scalePoint(sys scaleSystem, cfg Config, nClients int) (Point, Telemetry) {
	cfg = scaleTune(cfg)
	seed := PointSeed(cfg.Seed, "fig-scale", sys.name, fmt.Sprintf("clients=%d", nClients))
	e, mkClient, place := sys.build(cfg, seed)
	d := newLoadDriver(e, cfg)
	for i := 0; i < nClients; i++ {
		st := mkClient(i)
		gen := workload.NewGenerator(workload.Mix{
			Keys: cfg.Keys, ReadFrac: 1, ValueSize: cfg.ValueSize,
		}, clientSeed(seed, i))
		d.spawn(place(i), fmt.Sprintf("c%d", i), func(p *sim.Proc) (int64, error) {
			_, key := gen.Next()
			_, err := st.Get(p, key)
			return 0, err
		})
	}
	pt := d.run(nClients)
	return pt, d.telemetry(e)
}

// FigScale sweeps client (= connection) count per server across the three
// deployment classes until each hits its connection cliff: throughput vs
// clients, 100% GETs, uniform keys. The per-point labels carry the QP
// cache counters — they are virtual-time-deterministic, so the rendered
// CSV stays byte-identical at every -parallel/-intra/-affinity setting.
func FigScale(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig-scale", Title: "Connection scaling to the QP-cache cliff, 100% GETs, uniform",
		XLabel: "clients (connections per server)", YLabel: "throughput (ops/s)",
	}
	systems := scaleSystems()
	var jobs []func() (Point, Telemetry)
	for _, sys := range systems {
		for _, nClients := range cfg.ScaleClients {
			jobs = append(jobs, func() (Point, Telemetry) { return scalePoint(sys, cfg, nClients) })
		}
	}
	pts, tels, wall := runPointJobs(cfg.Parallel, jobs)
	fig.PointWall, fig.PointTel = wall, tels
	for si, sys := range systems {
		s := Series{Name: sys.name}
		for ci := range cfg.ScaleClients {
			idx := si*len(cfg.ScaleClients) + ci
			pt, tel := pts[idx], tels[idx]
			s.Points = append(s.Points, pt)
			s.Labels = append(s.Labels, fmt.Sprintf(
				"clients=%d  tput=%.0f ops/s  mean=%.2fµs  qp hit/miss/evict=%d/%d/%d",
				pt.Clients, pt.Throughput, float64(pt.Mean)/1e3,
				tel.QPCacheHits, tel.QPCacheMisses, tel.QPCacheEvictions))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

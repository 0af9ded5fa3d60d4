package bench

import (
	"fmt"
	"time"

	"prism/internal/model"
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

// scaleFabric is the fig-scale cost model: the paper figures' with the
// connection-scaling model enabled.
func scaleFabric() model.Params { return rackFabric().WithConnScaling() }

// scaleTune shapes the config for the sweep. The measurement windows are
// clamped: the high end of the ladder runs tens of thousands of
// closed-loop clients, so the paper figures' windows would burn
// wall-clock time without changing the shape of the cliff. Only tightens,
// never loosens, so tests can go smaller.
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

// scaleSystems are the fig-scale series: deployments whose QP cache class
// (model.Params.QPCacheFor) decides where the cliff lands. Each PRISM-KV
// client gets exactly one data QP and no control QP.
func scaleSystems() []system {
	single := kvTune{singleQP: true}
	return []system{
		{"Pilaf", pilaf(model.HardwareRDMA, scaleFabric())},
		{"PRISM-KV", prismKV(model.ProjectedHardwarePRISM, scaleFabric(), single)},
		{"PRISM-KV (software PRISM)", prismKV(model.SoftwarePRISM, scaleFabric(), single)},
	}
}

// scalePoint runs one ladder point: nClients single-connection closed-loop
// GET clients against one server, on the fixed Config.ScaleMachines fleet.
func scalePoint(sys system, cfg Config, nClients int) (Point, Telemetry) {
	w := load{readFrac: 1, machines: cfg.ScaleMachines}
	return runPoint(scaleTune(cfg), "fig-scale", sys, w, clientsKey(nClients), nClients)
}

// FigScale sweeps client (= connection) count per server across the three
// deployment classes until each hits its connection cliff: throughput vs
// clients, 100% GETs, uniform keys. The per-point labels carry the QP
// cache counters — they are virtual-time-deterministic, so the rendered
// CSV stays byte-identical at every -parallel setting.
func FigScale(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig-scale", Title: "Connection scaling to the QP-cache cliff, 100% GETs, uniform",
		XLabel: "clients (connections per server)", YLabel: "throughput (ops/s)",
	}
	systems := scaleSystems()
	sweep(cfg, fig, names(systems), cfg.ScaleClients, func(cfg Config, si, nClients int) (Point, Telemetry) {
		return scalePoint(systems[si], cfg, nClients)
	}, func(_, _ int, pt Point, tel Telemetry) string {
		return fmt.Sprintf("clients=%d  tput=%.0f ops/s  mean=%.2fµs  qp hit/miss/evict=%d/%d/%d",
			pt.Clients, pt.Throughput, float64(pt.Mean)/1e3,
			tel.ConnCacheHits, tel.ConnCacheMisses, tel.ConnCacheEvictions)
	})
	return fig
}

package bench

import (
	"fmt"

	"prism/internal/model"
)

// The paper's application figures: which systems, which x axis, which
// labels. Everything else is harness.go.

// Fig3 reproduces Figure 3: PRISM-KV vs Pilaf (hardware and software
// RDMA), 100% reads, uniform distribution — throughput vs latency.
func Fig3(cfg Config) *Figure {
	return kvFigure(cfg, "fig3", "PRISM-KV vs Pilaf, 100% reads, uniform", 1.0)
}

// Fig4 reproduces Figure 4: the same comparison at 50% reads (YCSB-A).
func Fig4(cfg Config) *Figure {
	return kvFigure(cfg, "fig4", "PRISM-KV vs Pilaf, 50% reads, uniform", 0.5)
}

// paperKV is PRISM-KV as Figures 3 and 4 measure it: the software
// deployment, a control QP per client.
var paperKV = system{"PRISM-KV", prismKV}

func kvFigure(cfg Config, id, title string, readFrac float64) *Figure {
	fig := &Figure{ID: id, Title: title, XLabel: "throughput (ops/s)", YLabel: "mean latency (µs)"}
	return ladder(cfg, fig, []system{
		{"Pilaf", pilaf(model.HardwareRDMA)},
		{"Pilaf (software RDMA)", pilaf(model.SoftwarePRISM)},
		paperKV,
	}, load{readFrac: readFrac}, clientsKey)
}

// Fig6 reproduces Figure 6: PRISM-RS vs lock-based ABD, 50% writes,
// uniform — throughput vs latency, 3 replicas.
func Fig6(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig6", Title: "PRISM-RS vs ABDLOCK, 50% writes, uniform, 3 replicas",
		XLabel: "throughput (ops/s)", YLabel: "mean latency (µs)",
	}
	return ladder(cfg, fig, []system{
		{"ABDLOCK", abdlock(model.HardwareRDMA)},
		{"ABDLOCK (software RDMA)", abdlock(model.SoftwarePRISM)},
		{"PRISM-RS", prismRS},
	}, load{readFrac: 0.5}, func(n int) string { return thetaKey(0, n) })
}

// Fig7 reproduces Figure 7: latency under contention — 100 closed-loop
// clients, Zipf coefficient swept from 0 to 1.2.
func Fig7(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig7", Title: "PRISM-RS vs ABDLOCK under contention (100 clients)",
		XLabel: "Zipf coefficient", YLabel: "mean latency (µs)",
	}
	thetas := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95, 1.1, 1.2}
	systems := []system{
		{"ABDLOCK", abdlock(model.HardwareRDMA)},
		{"PRISM-RS", prismRS},
	}
	const clients = 100
	sweep(cfg, fig, names(systems), thetas, func(cfg Config, si int, theta float64) (Point, Telemetry) {
		return runPoint(cfg, "fig7", systems[si], load{readFrac: 0.5, theta: theta}, thetaKey(theta, clients), clients)
	}, func(_, ti int, pt Point, _ Telemetry) string {
		return fmt.Sprintf("zipf=%.2f  mean=%.2fµs  p99=%.2fµs", thetas[ti], float64(pt.Mean)/1e3, float64(pt.P99)/1e3)
	})
	return fig
}

func txSystems() []system {
	return []system{
		{"FaRM", farm(model.HardwareRDMA)},
		{"FaRM (software RDMA)", farm(model.SoftwarePRISM)},
		{"PRISM-TX", prismTX},
	}
}

// Fig9 reproduces Figure 9: PRISM-TX vs FaRM throughput-latency, YCSB-T
// read-modify-write transactions, uniform access, one shard.
func Fig9(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig9", Title: "PRISM-TX vs FaRM, YCSB-T, uniform",
		XLabel: "throughput (txns/s)", YLabel: "mean latency (µs)",
	}
	return ladder(cfg, fig, txSystems(), load{keysPerTx: 1}, func(n int) string { return thetaKey(0, n) })
}

// Fig10 reproduces Figure 10: peak throughput under varying Zipf skew.
func Fig10(cfg Config) *Figure {
	fig := &Figure{
		ID: "fig10", Title: "PRISM-TX vs FaRM peak throughput under contention",
		XLabel: "Zipf coefficient", YLabel: "peak throughput (txns/s)",
	}
	thetas := []float64{0, 0.4, 0.8, 1.0, 1.2, 1.4, 1.6}
	// Peak = best throughput over a short client ladder.
	rungs := []int{64, 192, 320}
	type rung struct {
		theta   float64
		clients int
	}
	var xs []rung
	for _, theta := range thetas {
		for _, n := range rungs {
			xs = append(xs, rung{theta, n})
		}
	}
	systems := txSystems()
	sweep(cfg, fig, names(systems), xs, func(cfg Config, si int, x rung) (Point, Telemetry) {
		return runPoint(cfg, "fig10", systems[si], load{theta: x.theta, keysPerTx: 1}, thetaKey(x.theta, x.clients), x.clients)
	}, nil)
	// The sweep is flat (systems x thetas x rungs, which is also the order
	// of PointWall/PointTel); the figure plots each theta's peak rung.
	for si := range fig.Series {
		flat := fig.Series[si].Points
		s := Series{Name: fig.Series[si].Name}
		for ti, theta := range thetas {
			best := flat[ti*len(rungs)]
			for _, pt := range flat[ti*len(rungs)+1 : (ti+1)*len(rungs)] {
				if pt.Throughput > best.Throughput {
					best = pt
				}
			}
			s.Points = append(s.Points, best)
			s.Labels = append(s.Labels, fmt.Sprintf("zipf=%.2f  peak=%.0f txns/s (aborts %d)",
				theta, best.Throughput, best.Aborts))
		}
		fig.Series[si] = s
	}
	return fig
}

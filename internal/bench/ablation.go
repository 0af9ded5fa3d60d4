package bench

import (
	"fmt"

	"prism/internal/alloc"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/wire"
)

// Ablations of the design choices DESIGN.md §15 calls out. Each returns a
// small categorical Figure comparing the design as-built against the
// alternative.

// ablation runs a two-variant closed-loop comparison: 16 clients of each
// system under w, one point per series.
func ablation(cfg Config, fig *Figure, systems []system, w load, label func(pt Point) string) *Figure {
	const clients = 16
	sweep(cfg, fig, names(systems), []int{clients}, func(cfg Config, si, n int) (Point, Telemetry) {
		return runPoint(cfg, fig.ID, systems[si], w, clientsKey(n), n)
	}, func(_, _ int, pt Point, _ Telemetry) string { return label(pt) })
	return fig
}

// AblationKVSlotCache measures PRISM-KV PUT latency with and without the
// slot cache the paper's §6.2 parenthetical describes: read-modify-write
// workloads can skip the slot-probe round trip, halving PUTs to one round
// trip.
func AblationKVSlotCache(cfg Config) *Figure {
	fig := &Figure{
		ID:     "ablation-kv-slotcache",
		Title:  "PRISM-KV PUT: probe every time (paper's pessimal case) vs cached slot",
		XLabel: "variant", YLabel: "mean PUT latency (µs)",
	}
	// A read-modify-write loop over a small working set, so the cache has hits
	// (each client revisits its keys many times).
	cfg.Keys = 16
	return ablation(cfg, fig, []system{
		{"probe + chain (2 RTs)", paperKV.build},
		{"cached slot + chain (1 RT)", prismKV(model.SoftwarePRISM, kvTune{slotCache: true})},
	}, load{readFrac: 0}, func(pt Point) string { return fmt.Sprintf("mean=%.2fµs", float64(pt.Mean)/1e3) })
}

// AblationRedirectTarget measures the out-of-place update chain on the
// projected hardware NIC with redirect targets in on-NIC memory (§4.2's
// recommendation) vs in host memory (one extra PCIe round trip per
// redirected op).
func AblationRedirectTarget(cfg Config) *Figure {
	fig := &Figure{
		ID:     "ablation-redirect-target",
		Title:  "Chain redirect target on the projected NIC: on-NIC vs host memory",
		XLabel: "variant", YLabel: "chain round trip (µs)",
	}
	series := []string{"on-NIC temp storage (§4.2)", "host-memory temp storage"}
	sweep(cfg, fig, series, []string{"chain"}, func(_ Config, vi int, key string) (Point, Telemetry) {
		return redirectPoint(vi == 1).run(PointSeed(cfg.Seed, fig.ID, series[vi], key))
	}, func(_, _ int, pt Point, _ Telemetry) string {
		return fmt.Sprintf("chain RTT %.2fµs", float64(pt.Mean)/1e3)
	})
	return fig
}

// redirectPoint times the out-of-place update chain, its redirect target
// in host memory if hostMem: the ith issue writes a rising tag into the
// connection's temp cell, ALLOCATEs the new value with its address
// redirected beside the tag, and CASes the [tag|addr] cell over from there.
func redirectPoint(hostMem bool) microPoint {
	p := model.Default().WithNetwork(model.Direct)
	p.RedirectToHostMem = hostMem
	return microPoint{model.ProjectedHardwarePRISM, p, []microOp{func(env *microEnv, i int) []wire.Op {
		tagBytes := make([]byte, 8)
		prism.PutBE64(tagBytes, 0, uint64(i)+2) // above the cell's tag 1, rising
		tmp := env.conn.TempAddr
		return []wire.Op{
			prism.Write(env.conn.TempKey, tmp, tagBytes),
			prism.Conditional(prism.RedirectTo(prism.Allocate(1, make([]byte, microValue)), env.conn.TempKey, tmp+8)),
			prism.Conditional(prism.CASIndirectData(env.reg.Key, env.reg.Base+64, wire.CASGt, tmp,
				prism.FieldMask(16, 0, 8), prism.FullMask(16))),
		}
	}}}
}

// AblationFreelistClasses quantifies §3.2's space/simplicity tradeoff:
// one free list per size class — the paper's power-of-two ladder, built
// here as the reference row, and the ladder the stores post
// (alloc.SizeClasses: the same rungs, the top one clipped to the largest
// entry) — vs a single list of max-size buffers, for a mixed-size
// population of objects behind the 16-byte header a store adds to each.
// It reports how many objects fit in a fixed byte budget and the share of
// the bytes used that hold nothing.
func AblationFreelistClasses(cfg Config) *Figure {
	fig := &Figure{
		ID:     "ablation-freelist-classes",
		Title:  "ALLOCATE buffer provisioning: power-of-two classes, with and without a clipped top, vs single class",
		XLabel: "variant", YLabel: "objects stored in a fixed byte budget",
	}
	// Entries of 16..ValueSize-byte values, log-uniform: skewed toward small.
	const entryHeader = 16 // klen | key (kv/layout.go)
	sizes := make([]uint64, 512)
	rng := sim.NewEngine(cfg.Seed).Rand()
	maxSize := uint64(cfg.ValueSize) + entryHeader
	for i := range sizes {
		sizes[i] = min(uint64(16)<<rng.Intn(6), uint64(cfg.ValueSize)) + entryHeader
	}
	budget := uint64(len(sizes)) * maxSize / 2 // can't fit all at max size

	var pow2 []uint64
	for c := uint64(64); ; c <<= 1 {
		pow2 = append(pow2, c)
		if c >= maxSize {
			break
		}
	}
	type variant struct {
		name    string
		classes []uint64
	}
	variants := []variant{
		{"power-of-two classes (§3.2)", pow2},
		{"power-of-two classes, top clipped to the largest entry (as built)", alloc.SizeClasses(64, maxSize)},
		{"single max-size class", []uint64{maxSize}},
	}
	for _, v := range variants {
		// Provision lists proportionally to demand per class, within the
		// byte budget, then count how many of the population's objects can
		// be stored and the wasted bytes.
		stored := 0
		used := uint64(0)
		waste := uint64(0)
		for _, s := range sizes {
			i, err := alloc.ClassFor(v.classes, s)
			if err != nil {
				continue
			}
			if used+v.classes[i] > budget {
				continue
			}
			used += v.classes[i]
			waste += v.classes[i] - s
			stored++
		}
		overhead := float64(waste) / float64(used)
		fig.Series = append(fig.Series, Series{
			Name:   v.name,
			Points: []Point{{Clients: 1, Throughput: float64(stored)}},
			Labels: []string{fmt.Sprintf("stored %d/%d objects, %.0f%% bytes wasted", stored, len(sizes), overhead*100)},
		})
	}
	return fig
}

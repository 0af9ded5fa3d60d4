package bench

import (
	"fmt"

	"prism/internal/alloc"
	"prism/internal/sim"
)

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

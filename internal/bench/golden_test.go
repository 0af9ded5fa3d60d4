package bench

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"io"
	"strings"
	"testing"
)

// goldenHashes holds "<set> <sha256>" lines: the SHA-256 of each figure
// set's rendered CSV. The simulator runs on a virtual clock, so the bytes
// are the same on any machine; a change to them is a change of simulated
// behaviour. The determinism tests compare two runs of one build with each
// other; this compares the build with its predecessors (the values were
// recorded under the conservative per-machine window scheduler, before
// every machine of a point shared one engine). A failure prints the new
// hash.
//
//go:embed testdata/figures_tiny.sha256
var goldenHashes string

// goldenSets are the figure sets pinned in testdata: the registry's `all`
// members in registry order at the tinyD config — the same entries, in the
// same order, that `prismbench all` renders — and the two figures outside
// `all` at their test configs.
var goldenSets = []struct {
	name   string
	render func(io.Writer)
}{
	{"all", func(w io.Writer) {
		cfg := tinyD()
		cfg.Parallel = 4
		for _, f := range Figures {
			if f.All {
				f.Fn(cfg).FprintCSV(w)
			}
		}
	}},
	{"fig-scale", func(w io.Writer) {
		cfg := scaleTestConfig()
		cfg.ScaleClients = []int{4, 48}
		FigScale(cfg).FprintCSV(w)
	}},
	{"fig-chase", func(w io.Writer) {
		FigChase(chaseTestConfig()).FprintCSV(w)
	}},
}

func TestFiguresGolden(t *testing.T) {
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(goldenHashes), "\n") {
		name, hash, _ := strings.Cut(line, " ")
		want[name] = hash
	}
	for _, set := range goldenSets {
		t.Run(set.name, func(t *testing.T) {
			h := sha256.New()
			set.render(h)
			if got := hex.EncodeToString(h.Sum(nil)); got != want[set.name] {
				t.Fatalf("%s CSV hash = %s, want %s (testdata/figures_tiny.sha256)",
					set.name, got, want[set.name])
			}
		})
	}
}

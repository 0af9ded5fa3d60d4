package bench

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"strings"
	"testing"
	"time"
)

// goldenHashes holds "<set> <sha256>" lines: the SHA-256 of each figure
// set's rendered CSV. The simulator runs on a virtual clock, so the bytes
// are the same on any machine; a change to them is a change of simulated
// behaviour. The determinism tests compare two runs of one build with each
// other; this compares the build with its predecessors. A failure prints
// the new hash.
//
//go:embed testdata/figures_tiny.sha256
var goldenHashes string

// perFigureHashes holds "<figure> <sha256>" lines: each sweep figure's CSV
// at tinyD, and fig4's with a 500 ns rack split ("fig4-crossrack").
//
//go:embed testdata/figures_per_machine.sha256
var perFigureHashes string

// recordedHash returns the recorded hash of name in a "<name> <sha256>"
// list.
func recordedHash(t *testing.T, list, name string) string {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		if n, hash, _ := strings.Cut(line, " "); n == name {
			return hash
		}
	}
	t.Fatalf("no recorded hash for %s", name)
	return ""
}

func csvHash(csv string) string {
	sum := sha256.Sum256([]byte(csv))
	return hex.EncodeToString(sum[:])
}

// sweepCSV caches each sweep figure's tinyD render, serial under its name
// and on a four-worker pool under "<name>/pooled", so that across the tests
// below a figure is rendered at most twice. A test run alone renders what
// it reads.
var sweepCSV = make(map[string]string)

func renderSweep(name string, pooled bool) string {
	key, cfg := name, tinyD()
	if pooled {
		key += "/pooled"
		cfg.Intra = 4 // unread: a point runs on one engine, one goroutine
		cfg.Parallel = 4
	}
	if csv, ok := sweepCSV[key]; ok {
		return csv
	}
	for _, f := range Figures {
		if f.Name == name {
			sweepCSV[key] = render(f.Fn(cfg))
		}
	}
	return sweepCSV[key]
}

// TestFiguresGolden pins every figure's bytes to its recorded hash:
//
//   - serial/<fig>: every sweep figure (the registry minus fig-scale and
//     fig-chase, which have their own ladders), rendered serially at
//     tinyD, has its recorded hash (testdata/figures_per_machine.sha256,
//     recorded with one event domain per client machine). Every machine
//     of a point shares one engine and delivery order is (time, source
//     node, send sequence), so how machines were once grouped stays
//     invisible;
//   - pooled/<fig>: every sweep figure renders its recorded hash with its
//     points on a worker pool too. Intra, set beside the pool, is unread
//     and must not move a byte either. On a mismatch the serial render is
//     shown beside the pooled one;
//   - fig4 with a 500 ns rack split, serially and pooled, to its recorded
//     hash — and unlike flat fig4, since the split is physics;
//   - the `all` set — the registry's `all` members in registry order, the
//     entries `prismbench all` renders — from the pooled renders above;
//   - fig-scale and fig-chase at their test configs.
func TestFiguresGolden(t *testing.T) {
	for _, figure := range sweepFigures() {
		t.Run("serial/"+figure.Name, func(t *testing.T) {
			csv := renderSweep(figure.Name, false)
			if got, want := csvHash(csv), recordedHash(t, perFigureHashes, figure.Name); got != want {
				t.Fatalf("%s CSV hash = %s, want %s:\n%s", figure.Name, got, want, csv)
			}
		})
	}
	for _, figure := range sweepFigures() {
		t.Run("pooled/"+figure.Name, func(t *testing.T) {
			pooled := renderSweep(figure.Name, true)
			if csvHash(pooled) != recordedHash(t, perFigureHashes, figure.Name) {
				t.Fatalf("parallel=4 output differs from the recorded serial hash:\n--- serial ---\n%s--- parallel=4 ---\n%s",
					renderSweep(figure.Name, false), pooled)
			}
		})
	}
	t.Run("fig4-crossrack", func(t *testing.T) {
		cfg := tinyD()
		cfg.CrossRack = 500 * time.Nanosecond
		racked := render(Fig4(cfg))
		if racked == renderSweep("fig4", true) {
			t.Fatal("cross-rack latency had no effect on fig4")
		}
		if got, want := csvHash(racked), recordedHash(t, perFigureHashes, "fig4-crossrack"); got != want {
			t.Fatalf("cross-rack fig4 CSV hash = %s, want %s:\n%s", got, want, racked)
		}
		cfg.Parallel = 4
		if again := render(Fig4(cfg)); again != racked {
			t.Fatalf("cross-rack fig4 differs on a worker pool:\n%s\nvs\n%s", racked, again)
		}
	})
	t.Run("all", func(t *testing.T) {
		h := sha256.New()
		for _, f := range Figures {
			if f.All {
				h.Write([]byte(renderSweep(f.Name, true)))
			}
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), recordedHash(t, goldenHashes, "all"); got != want {
			t.Fatalf("all CSV hash = %s, want %s (testdata/figures_tiny.sha256)", got, want)
		}
	})
	scale := scaleTestConfig()
	scale.ScaleClients = []int{4, 48}
	for _, set := range []struct {
		name string
		fig  func() *Figure
	}{
		{"fig-scale", func() *Figure { return FigScale(scale) }},
		{"fig-chase", func() *Figure { return FigChase(chaseTestConfig()) }},
	} {
		t.Run(set.name, func(t *testing.T) {
			if got, want := csvHash(render(set.fig())), recordedHash(t, goldenHashes, set.name); got != want {
				t.Fatalf("%s CSV hash = %s, want %s (testdata/figures_tiny.sha256)", set.name, got, want)
			}
		})
	}
}

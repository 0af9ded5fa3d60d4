package bench

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"prism/internal/kv"
)

// TestSweepBuildsEachTemplateOnce: Fig3's two Pilaf series share one
// image. On a four-worker pool their points race for it, and one of them
// builds it while the rest wait. A second Fig3 is a second sweep, so it
// builds its own images again instead of finding the first one's.
func TestSweepBuildsEachTemplateOnce(t *testing.T) {
	var mu sync.Mutex
	builds := map[templateKey]int{}
	templateBuilt = func(key templateKey, _ any) {
		mu.Lock()
		builds[key]++
		mu.Unlock()
	}
	t.Cleanup(func() { templateBuilt = nil })

	cfg := tiny()
	cfg.Parallel = 4
	for run := 1; run <= 2; run++ {
		Fig3(cfg) // its workers have exited when it returns
		for _, system := range []string{"pilaf", "prismkv"} {
			key := templateKey{system: system, keys: cfg.Keys, valueSize: cfg.ValueSize}
			if builds[key] != run {
				t.Errorf("after Fig3 #%d: %s built %d times, want %d", run, system, builds[key], run)
			}
		}
		if len(builds) != 2 {
			t.Fatalf("after Fig3 #%d: built %v, want pilaf and prismkv only", run, builds)
		}
	}
}

// TestFigureDropsItsTemplates: once a figure returns, nothing holds the
// images its sweep built, so collections free them. A finalizer on each
// image reports it freed.
func TestFigureDropsItsTemplates(t *testing.T) {
	var mu sync.Mutex
	var names []string
	freed := make(chan string, 8)
	templateBuilt = func(key templateKey, val any) {
		mu.Lock()
		names = append(names, key.system)
		mu.Unlock()
		switch im := val.(type) {
		case image[kv.Meta]:
			runtime.SetFinalizer(im.nic, func(any) { freed <- key.system })
		case image[kv.PilafMeta]:
			runtime.SetFinalizer(im.nic, func(any) { freed <- key.system })
		default:
			t.Errorf("%s: template of unexpected type %T", key.system, val)
		}
	}
	t.Cleanup(func() { templateBuilt = nil })

	Fig3(tiny())
	if len(names) != 2 {
		t.Fatalf("Fig3 built %v, want PRISM-KV and Pilaf", names)
	}
	deadline := time.After(10 * time.Second)
	for left := len(names); left > 0; {
		runtime.GC() // finalizers run after the collection that finds the image unreachable
		select {
		case <-freed:
			left--
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of the templates Fig3 built (%v) are still reachable after the figure returned", left, names)
		}
	}
}

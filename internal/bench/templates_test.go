package bench

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"prism/internal/kv"
)

// indexed reports whether the weak index still has an entry for key.
func indexed(key templateKey) bool {
	liveTemplates.mu.Lock()
	defer liveTemplates.mu.Unlock()
	_, ok := liveTemplates.m[key]
	return ok
}

// TestSweepBuildsEachTemplateOnce: Fig3's two Pilaf series share one
// image. On a four-worker pool their points race for it, and one of them
// builds it while the rest wait. Fig4 runs on the same two stores and,
// with the collector off, adopts Fig3's images instead of building its
// own. Once a collection has freed them, the next Fig3 builds both again.
func TestSweepBuildsEachTemplateOnce(t *testing.T) {
	runtime.GC() // no earlier test's image may be adopted
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
	want := func(after string, n int) {
		t.Helper()
		for _, system := range []string{"pilaf", "prismkv"} {
			key := templateKey{system: system, keys: cfg.Keys, valueSize: cfg.ValueSize}
			if builds[key] != n {
				t.Errorf("after %s: %s built %d times, want %d", after, system, builds[key], n)
			}
		}
		if len(builds) != 2 {
			t.Fatalf("after %s: built %v, want pilaf and prismkv only", after, builds)
		}
	}
	Fig3(cfg) // its workers have exited when it returns
	want("Fig3", 1)
	Fig4(cfg)
	want("Fig3, Fig4", 1)
	runtime.GC()
	Fig3(cfg)
	want("Fig3, Fig4, a collection and Fig3", 2)
}

// TestFigureDropsItsTemplates: once a figure returns, nothing holds the
// images its sweep built or adopted, so collections free them and their
// index entries. Fig3 and Fig4 run with the collector off, so Fig4 adopts
// Fig3's images; a finalizer on each image reports it freed, and the
// index's cleanups must then empty it of both keys.
func TestFigureDropsItsTemplates(t *testing.T) {
	runtime.GC() // no earlier test's image may be adopted
	var mu sync.Mutex
	var keys []templateKey
	freed := make(chan string, 8)
	templateBuilt = func(key templateKey, val any) {
		mu.Lock()
		keys = append(keys, key)
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

	gc := debug.SetGCPercent(-1)
	Fig3(tiny())
	Fig4(tiny())
	debug.SetGCPercent(gc)
	if len(keys) != 2 {
		t.Fatalf("Fig3 and Fig4 built %v, want PRISM-KV and Pilaf once each", keys)
	}
	deadline := time.After(10 * time.Second)
	for left := len(keys); left > 0; {
		runtime.GC() // finalizers run after the collection that finds the image unreachable
		select {
		case <-freed:
			left--
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of the templates Fig3 and Fig4 used (%v) are still reachable after the figures returned", left, keys)
		}
	}
	for _, key := range keys {
		for indexed(key) {
			runtime.GC() // cleanups, too, run after the collection that frees their entry
			select {
			case <-time.After(10 * time.Millisecond):
			case <-deadline:
				t.Fatalf("%s: the weak index still has an entry after its image was freed", key.system)
			}
		}
	}
}

package main

import (
	"regexp"
	"strconv"
	"testing"

	"prism/internal/alloc"
	"prism/internal/kv"
	"prism/internal/transport"
)

// TestMemoryLine: the drain summary's memory line names every class that
// carved and no other, and 128 loaded keys of 1 KiB sit in the fewest
// slabs of buffers their own size (1040 bytes behind the entry header, not
// 2048) beside a hash table of one region.
func TestMemoryLine(t *testing.T) {
	const loaded = 128
	ts := transport.NewServer()
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(256, 1024))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < loaded; k++ {
		if err := store.Load(k, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	const perSlab = alloc.SlabBytes / 1040
	const slabs = (loaded + perSlab - 1) / perSlab
	line := memoryLine(ts)
	m := regexp.MustCompile(`^prismd: memory: registered=(\d+) regions=(\d+) \| buf=1040 slabs=(\d+) free=(\d+) pending=0$`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("memory line %q: want one class, of 1040-byte buffers", line)
	}
	if got, _ := strconv.Atoi(m[3]); got != slabs {
		t.Fatalf("slabs=%d for %d keys of 1 KiB, want %d of %d buffers", got, loaded, slabs, perSlab)
	}
	if got, _ := strconv.Atoi(m[2]); got != 1+slabs {
		t.Fatalf("regions=%d, want the hash table and %d slabs", got, slabs)
	}
	if n, _ := strconv.Atoi(m[1]); n <= slabs*perSlab*1040 || n >= slabs*perSlab*1040+alloc.SlabBytes {
		t.Fatalf("registered=%d, want %d slabs (%d bytes) and a hash table smaller than a slab", n, slabs, slabs*perSlab*1040)
	}
	if free, _ := strconv.Atoi(m[4]); free != slabs*perSlab-loaded {
		t.Fatalf("free=%d, want the slabs' %d buffers less the %d loaded", free, slabs*perSlab, loaded)
	}
}

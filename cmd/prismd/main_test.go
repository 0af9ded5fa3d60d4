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
// carved and no other, and 128 loaded keys of 1 KiB sit in one slab of
// buffers their own size (1040 bytes behind the entry header, not 2048).
func TestMemoryLine(t *testing.T) {
	ts := transport.NewServer()
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(256, 1024))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 128; k++ {
		if err := store.Load(k, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	const perSlab = alloc.SlabBytes / 1040
	line := memoryLine(ts)
	m := regexp.MustCompile(`^prismd: memory: registered=(\d+) regions=2 \| buf=1040 slabs=1 free=(\d+) pending=0$`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("memory line %q: want the hash table and one slab of 1040-byte buffers", line)
	}
	if n, _ := strconv.Atoi(m[1]); n <= perSlab*1040 || n >= perSlab*1040+64<<10 {
		t.Fatalf("registered=%d for 128 keys of 1 KiB, want one slab (%d bytes) and a small hash table", n, perSlab*1040)
	}
	if free, _ := strconv.Atoi(m[2]); free != perSlab-128 {
		t.Fatalf("free=%d, want the slab's %d buffers less the 128 loaded", free, perSlab)
	}
}

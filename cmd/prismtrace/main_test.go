package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prism"
	iprism "prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/wire"
)

// TestTraceGolden: every scenario's printed trace — timings and the
// server-side record of the executed ops — is the same bytes on every run
// and is the recorded one (testdata/<scenario>.golden): the (time, source
// node, send sequence) delivery order keeps the bytes.
func TestTraceGolden(t *testing.T) {
	for _, which := range []string{"kvget", "kvput", "kvscan", "abdwrite", "txcommit"} {
		t.Run(which, func(t *testing.T) {
			var first, second strings.Builder
			if !trace(&first, which) || !trace(&second, which) {
				t.Fatalf("trace(%q) failed", which)
			}
			if first.String() != second.String() {
				t.Fatalf("trace differs between runs:\n--- first ---\n%s--- second ---\n%s",
					first.String(), second.String())
			}
			if want := golden(t, which); first.String() != want {
				t.Fatalf("trace differs from the recorded one:\n--- testdata ---\n%s--- this run ---\n%s",
					want, first.String())
			}
		})
	}
}

// golden reads testdata/<name>.golden.
func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTracePrintsTheExecutedOps: the trace describes the ops the server
// ran, not what a client is believed to send. The PUT's ALLOCATE names the
// free list the client picked for the entry — the smallest class that holds
// it — where a hand-kept copy of the chain once printed list 4.
func TestTracePrintsTheExecutedOps(t *testing.T) {
	var out strings.Builder
	if !trace(&out, "kvput") {
		t.Fatal("trace(kvput) failed")
	}
	c := prism.NewCluster(prism.ClusterConfig{})
	store, err := prism.NewKVServer(c.NewServer("kv", prism.SoftwarePRISM), prism.KVOptions(64, 256))
	if err != nil {
		t.Fatal(err)
	}
	entry := uint64(8 + 8 + len(putValue)) // klen | key | value
	class := uint32(0)
	for _, fl := range store.Meta().FreeLists { // ascending sizes
		if fl.BufSize >= entry {
			class = fl.ID
			break
		}
	}
	want := fmt.Sprintf("freelist=%d payload=%dB", class, entry)
	if class == 0 || !strings.Contains(out.String(), want) {
		t.Fatalf("the printed ALLOCATE does not say %q:\n%s", want, out.String())
	}
}

// traceMultiClient drives three client machines through interleaved KV
// traffic against one server and returns the server's execution trace,
// one event a line.
func traceMultiClient(t *testing.T) string {
	t.Helper()
	c := prism.NewCluster(prism.ClusterConfig{Seed: 11})
	srv := c.NewServer("kv", prism.SoftwarePRISM)
	store, err := prism.NewKVServer(srv, prism.KVOptions(64, 128))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 8; k++ {
		if err := store.Load(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	srv.SetObserver(func(req *wire.Request, i int, res *wire.Result, _ *iprism.OpMeta) {
		out.WriteString(opLine(c.Engine().Now(), req, i, res))
		out.WriteByte('\n')
	})
	for i := 0; i < 3; i++ {
		conn := c.NewClientMachine(fmt.Sprintf("cli-%d", i)).Connect(srv)
		kv := prism.NewKVClient(conn, store.Meta(), uint16(i+1))
		c.Go(fmt.Sprintf("load-%d", i), func(p *sim.Proc) {
			for round := 0; round < 16; round++ {
				key := int64((i + round) % 8)
				if round%3 == 0 {
					if err := kv.Put(p, key, []byte(fmt.Sprintf("c%d-r%d", i, round))); err != nil {
						t.Errorf("put: %v", err)
					}
				} else if _, err := kv.Get(p, key); err != nil {
					t.Errorf("get: %v", err)
				}
			}
		})
	}
	c.Run()
	return out.String()
}

// TestMultiClientTraceGolden: with three clients racing on one server, the
// server-side wire trace is event for event the recorded one
// (testdata/multiclient.golden): the (time, source node, send sequence)
// order decides delivery.
func TestMultiClientTraceGolden(t *testing.T) {
	got := traceMultiClient(t)
	if got == "" {
		t.Fatal("empty execution trace")
	}
	want := strings.SplitAfter(golden(t, "multiclient"), "\n")
	lines := strings.SplitAfter(got, "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d events vs %d recorded", len(lines)-1, len(want)-1)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("event %d differs:\nrecorded: %sthis run: %s", i, want[i], lines[i])
		}
	}
}

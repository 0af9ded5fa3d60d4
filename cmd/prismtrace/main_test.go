package main

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"prism"
	"prism/internal/rdma"
	"prism/internal/sim"
)

// TestTraceAffinityByteIdentical: every scenario's printed trace —
// timings and the server-side record of the executed ops — must be
// byte-identical whether client machines get their own event domain or
// share one through an affinity group.
func TestTraceAffinityByteIdentical(t *testing.T) {
	for _, which := range []string{"kvget", "kvput", "kvchase", "kvscan", "abdwrite", "txcommit"} {
		t.Run(which, func(t *testing.T) {
			var solo, grouped strings.Builder
			if !trace(&solo, which, 1) {
				t.Fatalf("trace(%q) failed", which)
			}
			if !trace(&grouped, which, 4) {
				t.Fatalf("trace(%q, affinity=4) failed", which)
			}
			if solo.String() != grouped.String() {
				t.Fatalf("trace differs under affinity grouping:\n--- solo ---\n%s--- affinity=4 ---\n%s",
					solo.String(), grouped.String())
			}
		})
	}
}

// TestTracePrintsTheExecutedOps: the trace describes the ops the server
// ran, not what a client is believed to send. The PUT's ALLOCATE names the
// free list the client picked for the entry — the smallest class that holds
// it — where a hand-kept copy of the chain once printed list 4.
func TestTracePrintsTheExecutedOps(t *testing.T) {
	var out strings.Builder
	if !trace(&out, "kvput", 1) {
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

// domRe strips the owning-domain annotation: regrouping legitimately
// renumbers domains (fewer of them exist), but everything else about the
// executed trace — order, times, connections, sequence numbers, opcodes,
// statuses — must not move.
var domRe = regexp.MustCompile(`dom=\d+`)

// traceMultiClient drives three client machines (grouped per the given
// ClientsPerDomain) through interleaved KV traffic against one server
// and returns the server's execution trace.
func traceMultiClient(t *testing.T, clientsPerDomain int) []string {
	t.Helper()
	c := prism.NewCluster(prism.ClusterConfig{Seed: 11, ClientsPerDomain: clientsPerDomain})
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
	ring := rdma.NewTraceRing(4096)
	srv.SetTracer(ring.Record)
	for i := 0; i < 3; i++ {
		i := i
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
	var out []string
	for _, ev := range ring.Events() {
		out = append(out, domRe.ReplaceAllString(ev.String(), "dom=*"))
	}
	return out
}

// TestRegroupingPreservesExecutionTrace: with three clients racing on
// one server, the server-side wire trace must be identical under every
// grouping — the (time, source node, send sequence) merge order decides
// delivery order, never the domain layout.
func TestRegroupingPreservesExecutionTrace(t *testing.T) {
	base := traceMultiClient(t, 1)
	if len(base) == 0 {
		t.Fatal("empty execution trace")
	}
	for _, g := range []int{2, 3} {
		regrouped := traceMultiClient(t, g)
		if len(regrouped) != len(base) {
			t.Fatalf("ClientsPerDomain=%d: %d events vs %d ungrouped", g, len(regrouped), len(base))
		}
		for i := range base {
			if base[i] != regrouped[i] {
				t.Fatalf("ClientsPerDomain=%d: event %d differs:\nungrouped: %s\nregrouped: %s",
					g, i, base[i], regrouped[i])
			}
		}
	}
}

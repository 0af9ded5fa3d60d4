package rdma

import (
	"testing"
	"time"

	"prism/internal/fabric"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/wire"
)

// TestQPCacheLRU: unit-level check of the LRU — hits refresh recency,
// misses evict the least recently used entry, warm counts neither.
func TestQPCacheLRU(t *testing.T) {
	c := newQPCache(2)
	c.warm(1)
	c.warm(2)
	if c.hits != 0 || c.misses != 0 || c.evictions != 0 {
		t.Fatalf("warm counted: %d/%d/%d", c.hits, c.misses, c.evictions)
	}
	if !c.touch(1) { // hit; order now [1, 2]
		t.Fatal("warmed conn 1 not resident")
	}
	if c.touch(3) { // miss; evicts 2
		t.Fatal("conn 3 hit before first touch")
	}
	if c.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions)
	}
	if c.touch(2) { // 2 was evicted
		t.Fatal("evicted conn 2 still resident")
	}
	if !c.touch(3) || !c.touch(2) {
		t.Fatal("recent entries not resident")
	}
	if c.hits != 3 || c.misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 3/2", c.hits, c.misses)
	}
	// warm over capacity also evicts.
	c.warm(9)
	if c.evictions != 3 { // touch(2)'s miss evicted too
		t.Fatalf("evictions = %d, want 3", c.evictions)
	}
}

// qpWorkload connects nConns queue pairs to one server and round-robins
// nRounds small READs across them from a single closed-loop process,
// returning the total virtual time and the server.
func qpWorkload(t *testing.T, nConns, nRounds int, mut func(*model.Params)) (time.Duration, *Server) {
	t.Helper()
	p := model.Default().WithNetwork(model.Direct)
	if mut != nil {
		mut(&p)
	}
	e := sim.NewEngine(1)
	net := fabric.New(e, p)
	srv := NewServer(net, "srv", model.HardwareRDMA)
	reg, err := srv.Space().Register(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(net, "cli")
	conns := make([]*Conn, nConns)
	for i := range conns {
		conns[i] = cli.Connect(srv)
	}
	var total time.Duration
	e.Go("client", func(p *sim.Proc) {
		start := p.Now()
		for r := 0; r < nRounds; r++ {
			for _, conn := range conns {
				res := conn.Issue(p, prism.Read(reg.Key, reg.Base, 8))
				if res[0].Status != wire.StatusOK {
					t.Errorf("read status %v", res[0].Status)
					return
				}
			}
		}
		total = p.Now().Sub(start)
	})
	e.Run()
	return total, srv
}

// TestQPCacheDisabledByDefault: Default() params leave the model off —
// no counters move, and enabling a cache larger than the connection
// count does not change a single timestamp (prewarm at connect means
// within-capacity workloads are bit-identical to the disabled model).
func TestQPCacheDisabledByDefault(t *testing.T) {
	off, srv := qpWorkload(t, 8, 4, nil)
	if h, m, ev := srv.QPCacheCounters(); h != 0 || m != 0 || ev != 0 {
		t.Fatalf("counters moved with model disabled: %d/%d/%d", h, m, ev)
	}
	fits, srv2 := qpWorkload(t, 8, 4, func(p *model.Params) {
		p.HWQPCacheEntries = 16
		p.HWQPMissPenalty = p.PCIeRTT
	})
	if fits != off {
		t.Fatalf("within-capacity run took %v, disabled-model run %v; want identical", fits, off)
	}
	if _, m, _ := srv2.QPCacheCounters(); m != 0 {
		t.Fatalf("within-capacity workload missed %d times", m)
	}
}

// TestQPCacheThrashSlowsRoundRobin: with more connections than cache
// entries, the strict round-robin is the worst case — every touch
// misses, every request pays the fetch penalty, and the run is
// measurably slower than within capacity. The counters surface through
// the server and through the engine's Stats.
func TestQPCacheThrashSlowsRoundRobin(t *testing.T) {
	const conns, rounds = 8, 8
	fits, _ := qpWorkload(t, conns, rounds, func(p *model.Params) {
		p.HWQPCacheEntries = conns
		p.HWQPMissPenalty = p.PCIeRTT
	})
	thrash, srv := qpWorkload(t, conns, rounds, func(p *model.Params) {
		p.HWQPCacheEntries = conns / 2
		p.HWQPMissPenalty = p.PCIeRTT
	})
	h, m, ev := srv.QPCacheCounters()
	if m == 0 || ev == 0 {
		t.Fatalf("thrashing run: hits=%d misses=%d evictions=%d; want misses and evictions", h, m, ev)
	}
	// Request + response side both touch: 2 accesses per op.
	if want := int64(2 * conns * rounds); h+m != want {
		t.Fatalf("hits+misses = %d, want %d touches", h+m, want)
	}
	// Every op pays at least one PCIe fetch beyond the fitting run.
	minExtra := time.Duration(conns*rounds) * model.Default().PCIeRTT
	if thrash < fits+minExtra {
		t.Fatalf("thrash run %v not slower than fitting run %v by >= %v", thrash, fits, minExtra)
	}
	ws := srv.e.Stats()
	if ws.ConnCacheMisses != m || ws.ConnCacheHits != h || ws.ConnCacheEvictions != ev {
		t.Fatalf("engine Stats counters %d/%d/%d != server counters %d/%d/%d",
			ws.ConnCacheHits, ws.ConnCacheMisses, ws.ConnCacheEvictions, h, m, ev)
	}
}

// TestQPCacheFetchSerializes: concurrent cold arrivals queue on the
// shared context-fetch engine, so simultaneous misses finish strictly
// later than a lone one — the mechanism that caps throughput past the
// cliff rather than adding a flat latency tax.
func TestQPCacheFetchSerializes(t *testing.T) {
	latency := func(nConns int) time.Duration {
		p := model.Default().WithNetwork(model.Direct)
		p.HWQPCacheEntries = 1 // every arrival after the first conn is cold
		p.HWQPMissPenalty = p.PCIeRTT
		e := sim.NewEngine(1)
		net := fabric.New(e, p)
		srv := NewServer(net, "srv", model.HardwareRDMA)
		reg, err := srv.Space().Register(1 << 16)
		if err != nil {
			t.Fatal(err)
		}
		var worst time.Duration
		for i := 0; i < nConns; i++ {
			cli := NewClient(net, "cli")
			conn := cli.Connect(srv)
			e.Go("client", func(p *sim.Proc) {
				start := p.Now()
				conn.Issue(p, prism.Read(reg.Key, reg.Base, 8))
				if d := p.Now().Sub(start); d > worst {
					worst = d
				}
			})
		}
		e.Run()
		return worst
	}
	lone := latency(1)
	burst := latency(6)
	// Six simultaneous cold fetches serialize: the last one waits for
	// five fetch slots beyond what a lone miss pays.
	if min := lone + 4*model.Default().PCIeRTT; burst < min {
		t.Fatalf("burst worst-case %v, lone %v; want >= %v (fetch engine must serialize)", burst, lone, min)
	}
}

package rdma

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"prism/internal/fabric"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/wire"
)

// qpConns returns n server connections numbered from 0, for driving a
// qpCache directly.
func qpConns(n int) []*serverConn {
	conns := make([]*serverConn, n)
	for i := range conns {
		conns[i] = &serverConn{id: uint64(i)}
	}
	return conns
}

// TestQPCacheLRU: unit-level check of the LRU — hits refresh recency,
// misses evict the least recently used entry, warm counts neither.
func TestQPCacheLRU(t *testing.T) {
	var st sim.Stats
	c := newQPCache(2, &st)
	sc := qpConns(10)
	c.warm(sc[1])
	c.warm(sc[2])
	if st.ConnCacheHits != 0 || st.ConnCacheMisses != 0 || st.ConnCacheEvictions != 0 {
		t.Fatalf("warm counted: %d/%d/%d", st.ConnCacheHits, st.ConnCacheMisses, st.ConnCacheEvictions)
	}
	if !c.touch(sc[1]) { // hit; order now [1, 2]
		t.Fatal("warmed conn 1 not resident")
	}
	if c.touch(sc[3]) { // miss; evicts 2
		t.Fatal("conn 3 hit before first touch")
	}
	if st.ConnCacheEvictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.ConnCacheEvictions)
	}
	if c.touch(sc[2]) { // 2 was evicted
		t.Fatal("evicted conn 2 still resident")
	}
	if !c.touch(sc[3]) || !c.touch(sc[2]) {
		t.Fatal("recent entries not resident")
	}
	if st.ConnCacheHits != 3 || st.ConnCacheMisses != 2 {
		t.Fatalf("hits=%d misses=%d, want 3/2", st.ConnCacheHits, st.ConnCacheMisses)
	}
	// warm over capacity also evicts.
	c.warm(sc[9])
	if st.ConnCacheEvictions != 3 { // touch(2)'s miss evicted too
		t.Fatalf("evictions = %d, want 3", st.ConnCacheEvictions)
	}
}

// lruModel is the reference rule for qpCache: a slice of connection ids,
// most recently used first, searched on every access.
type lruModel struct {
	cap                     int
	ids                     []uint64
	hits, misses, evictions int64
}

// access is touch (count) or warm (!count): it reports whether id was
// resident and moves it to the front, evicting the last id when full.
func (m *lruModel) access(id uint64, count bool) bool {
	for i, r := range m.ids {
		if r == id {
			if count {
				m.hits++
			}
			copy(m.ids[1:i+1], m.ids[:i])
			m.ids[0] = id
			return true
		}
	}
	if count {
		m.misses++
	}
	if len(m.ids) >= m.cap {
		m.ids = m.ids[:len(m.ids)-1]
		m.evictions++
	}
	m.ids = append([]uint64{id}, m.ids...)
	return false
}

// TestQPCacheMatchesReference: seeded random warm/touch sequences over up
// to twice the capacity in connections leave the list through the
// connections where the slice model is — same touch results, residency,
// recency order and hit/miss/eviction counts after every step.
func TestQPCacheMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 8, 64} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var st sim.Stats
			c := newQPCache(capacity, &st)
			m := &lruModel{cap: capacity}
			conns := qpConns(1 + rng.Intn(2*capacity))
			for step := 0; step < 2000; step++ {
				sc := conns[rng.Intn(len(conns))]
				if rng.Intn(4) == 0 {
					c.warm(sc)
					m.access(sc.id, false)
				} else if got, want := c.touch(sc), m.access(sc.id, true); got != want {
					t.Fatalf("cap=%d seed=%d step %d: touch(%d) = %v, model %v", capacity, seed, step, sc.id, got, want)
				}
				var order []uint64
				for r := c.head; r != nil; r = r.qpNext {
					order = append(order, r.id)
				}
				if fmt.Sprint(order) != fmt.Sprint(m.ids) {
					t.Fatalf("cap=%d seed=%d step %d: list %v, model %v", capacity, seed, step, order, m.ids)
				}
				resident := 0
				for _, r := range conns {
					if r.qpResident {
						resident++
					}
				}
				if resident != len(m.ids) {
					t.Fatalf("cap=%d seed=%d step %d: %d connections resident, model %d", capacity, seed, step, resident, len(m.ids))
				}
				if st.ConnCacheHits != m.hits || st.ConnCacheMisses != m.misses || st.ConnCacheEvictions != m.evictions {
					t.Fatalf("cap=%d seed=%d step %d: hit/miss/evict %d/%d/%d, model %d/%d/%d", capacity, seed, step,
						st.ConnCacheHits, st.ConnCacheMisses, st.ConnCacheEvictions, m.hits, m.misses, m.evictions)
				}
			}
		}
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
				res, _ := conn.Issue([]wire.Op{prism.Read(reg.Key, reg.Base, 8)})
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
	if st := srv.e.Stats(); st.ConnCacheHits != 0 || st.ConnCacheMisses != 0 || st.ConnCacheEvictions != 0 {
		t.Fatalf("counters moved with model disabled: %d/%d/%d", st.ConnCacheHits, st.ConnCacheMisses, st.ConnCacheEvictions)
	}
	fits, srv2 := qpWorkload(t, 8, 4, func(p *model.Params) {
		p.HWQPCacheEntries = 16
		p.HWQPMissPenalty = p.PCIeRTT
	})
	if fits != off {
		t.Fatalf("within-capacity run took %v, disabled-model run %v; want identical", fits, off)
	}
	if m := srv2.e.Stats().ConnCacheMisses; m != 0 {
		t.Fatalf("within-capacity workload missed %d times", m)
	}
}

// TestQPCacheThrashSlowsRoundRobin: with more connections than cache
// entries, the strict round-robin is the worst case — every touch
// misses, every request pays the fetch penalty, and the run is
// measurably slower than within capacity. The counters surface through
// the engine's Stats.
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
	ws := srv.e.Stats()
	h, m, ev := ws.ConnCacheHits, ws.ConnCacheMisses, ws.ConnCacheEvictions
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
				conn.Issue([]wire.Op{prism.Read(reg.Key, reg.Base, 8)})
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

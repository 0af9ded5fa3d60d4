package bench

import (
	"testing"
	"time"

	"prism/internal/kv"
	"prism/internal/rdma"
	"prism/internal/sim"
)

// Alloc-regression guards for the zero-copy datapath. A full simulated
// PRISM-KV round trip — client op build, fabric delivery, NIC chain
// execution, response completion — must stay allocation-free up to the
// small pooled remainder measured here. The ceilings are deliberately
// above the measured values (GET ≈ 0, PUT ≈ 4 allocs/op at 128-byte
// values) to absorb runtime jitter, but far below the pre-optimization
// baseline (GET 10, PUT ≈ 26), so a pooling regression on any layer of
// the path trips the guard.
const (
	maxGetAllocsPerOp   = 4
	maxPutAllocsPerOp   = 8
	maxChaseAllocsPerOp = 6
	maxScanAllocsPerOp  = 8
)

// Both guards amortize testing.AllocsPerRun over 2000 operations inside
// a single closed-loop client process, after a warmup that fills the
// connection/request pools and the server-side arenas.

func TestGetAllocGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Keys = 1024
	e, st := KVCluster(cfg)
	var avg float64
	e.Go("guard", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			if _, err := st.Get(int64(i) % cfg.Keys); err != nil {
				t.Errorf("GET: %v", err)
			}
		}
		i := 0
		avg = testing.AllocsPerRun(2000, func() {
			if _, err := st.Get(int64(i) % cfg.Keys); err != nil {
				t.Errorf("GET: %v", err)
			}
			i++
		})
	})
	e.Run()
	t.Logf("GET: %.2f allocs/op", avg)
	if avg > maxGetAllocsPerOp {
		t.Fatalf("GET allocates %.2f/op, guard is %d/op — a pooling layer regressed", avg, maxGetAllocsPerOp)
	}
}

// TestSchedulerAllocGuard pins the scheduler's own steady state at zero:
// once the engine's event pool and burst buffers are warm, a
// schedule/fire cycle through the timer wheel and burst loop — including
// the common retransmission-guard shape of a far timer stopped before it
// fires — must not allocate at all. The event pool, wheel slots, and
// burst queues are all reused storage; any allocation here is a
// regression in the scheduler hot path itself, upstream of every
// datapath number the other guards watch.
func TestSchedulerAllocGuard(t *testing.T) {
	e := sim.NewEngine(7)
	fired := 0
	tick := func() { fired++ }
	// Warm up: fill the event pool and size the burst buffers, spanning
	// enough instants to touch coarse wheel levels and cascades.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, tick)
		e.Schedule(time.Duration(i)*time.Microsecond, tick)
		guard := e.Schedule(time.Duration(i)*time.Microsecond+time.Millisecond, tick)
		e.AtTail(e.Now().Add(time.Duration(i)*time.Microsecond), tick)
		guard.Stop()
	}
	e.Run()
	avg := testing.AllocsPerRun(2000, func() {
		// One steady-state scheduler cycle: a near event that fires, a
		// same-instant tail stage behind it, and a far guard timer that is
		// scheduled and stopped without firing.
		e.Schedule(3*time.Microsecond, tick)
		e.AtTail(e.Now().Add(3*time.Microsecond), tick)
		guard := e.Schedule(900*time.Microsecond, tick)
		if !guard.Stop() {
			t.Error("pending guard timer did not stop")
		}
		e.Run()
	})
	if fired == 0 {
		t.Fatal("warmup fired no events")
	}
	t.Logf("scheduler cycle: %.2f allocs/op (%d warmup fires)", avg, fired)
	if avg > 0 {
		t.Fatalf("scheduler steady state allocates %.2f/op, guard is 0/op — the wheel or burst path regressed", avg)
	}
}

// maxRSAllocsPerOp bounds PRISM-RS's Telemetry.AllocsPerOp at fig6's
// 17-client tinyD point, harness included: ≈33, mostly the harness —
// ABDLOCK's same point reads ≈18 — and the two images each write chain
// gets fresh. A future or closure per replica per phase would add ≈50.
const maxRSAllocsPerOp = 36

func TestRSAllocGuard(t *testing.T) {
	cfg := tinyD()
	cfg.ClientCounts = []int{17}
	fig := Fig6(cfg)
	for si, s := range fig.Series {
		if s.Name != "PRISM-RS" {
			continue
		}
		avg := fig.PointTel[si].AllocsPerOp
		t.Logf("PRISM-RS: %.2f allocs/op", avg)
		if avg > maxRSAllocsPerOp {
			t.Fatalf("PRISM-RS allocates %.2f/op, guard is %d/op — its quorum phases regressed", avg, maxRSAllocsPerOp)
		}
		return
	}
	t.Fatal("fig6 has no PRISM-RS series")
}

func TestPutAllocGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Keys = 1024
	e, st := KVCluster(cfg)
	value := make([]byte, cfg.ValueSize)
	var avg float64
	e.Go("guard", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			if err := st.Put(int64(i)%cfg.Keys, value); err != nil {
				t.Errorf("PUT: %v", err)
			}
		}
		i := 0
		avg = testing.AllocsPerRun(2000, func() {
			if err := st.Put(int64(i)%cfg.Keys, value); err != nil {
				t.Errorf("PUT: %v", err)
			}
			i++
		})
	})
	e.Run()
	t.Logf("PUT: %.2f allocs/op", avg)
	if avg > maxPutAllocsPerOp {
		t.Fatalf("PUT allocates %.2f/op, guard is %d/op — a pooling layer regressed", avg, maxPutAllocsPerOp)
	}
}

// TestChaseAllocGuard pins the warmed sim CHASE path: a depth-8 list
// chase — program build into the client's reused scratch, one round
// trip, pooled whole-node result — must stay as lean as a plain GET.
func TestChaseAllocGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ValueSize = 128
	v := newEnv(cfg, 42, load{})
	f, mk := v.chaseClients(8)
	e, cl := v.e, mk(f[0])
	key := func(i int) int64 { return (int64(i)%chaseBuckets)*8 + 7 } // tail keys
	var avg float64
	e.Go("guard", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			if _, err := cl.ChaseGet(key(i)); err != nil {
				t.Errorf("CHASE: %v", err)
			}
		}
		i := 0
		avg = testing.AllocsPerRun(2000, func() {
			if _, err := cl.ChaseGet(key(i)); err != nil {
				t.Errorf("CHASE: %v", err)
			}
			i++
		})
	})
	e.Run()
	t.Logf("CHASE: %.2f allocs/op", avg)
	if avg > maxChaseAllocsPerOp {
		t.Fatalf("CHASE allocates %.2f/op, guard is %d/op — a pooling layer regressed", avg, maxChaseAllocsPerOp)
	}
}

// TestScanAllocGuard pins the warmed sim SCAN path: one budget-bounded
// window over the hash table into a pooled result buffer, decoded
// in place by the visit callback.
func TestScanAllocGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Keys = 1024
	cfg.ValueSize = 128
	v := newEnv(cfg, 42, load{})
	e := v.e
	nic, meta := loadKV(v.net, cfg)
	cli := rdma.NewClient(v.net, "cli")
	st := kv.NewClient(cli.Connect(nic), meta, 1)
	visit := func(key int64, value []byte) error { return nil }
	nslots := meta.NSlots
	var avg float64
	e.Go("guard", func(p *sim.Proc) {
		cursor := int64(0)
		step := func() {
			next, err := st.Scan(cursor, 4096, visit)
			if err != nil {
				t.Errorf("SCAN: %v", err)
			}
			cursor = next
			if cursor >= nslots {
				cursor = 0
			}
		}
		for i := 0; i < 500; i++ {
			step()
		}
		avg = testing.AllocsPerRun(2000, step)
	})
	e.Run()
	t.Logf("SCAN: %.2f allocs/op", avg)
	if avg > maxScanAllocsPerOp {
		t.Fatalf("SCAN allocates %.2f/op, guard is %d/op — a pooling layer regressed", avg, maxScanAllocsPerOp)
	}
}

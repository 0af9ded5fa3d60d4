package bench

import (
	"testing"

	"prism/internal/sim"
)

// BenchmarkSimulatedGET measures one full PRISM-KV GET round trip through
// the simulator — client encode, fabric delivery, NIC chain execution
// (indirect read through the slot), response decode — the inner loop of
// every figure point.
func BenchmarkSimulatedGET(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Keys = 1024
	e, st := KVCluster(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := st.Get(int64(i) % cfg.Keys); err != nil {
				panic(err)
			}
		}
	})
	e.Run()
}

// BenchmarkSimulatedPUT is the write-side companion: slot probe plus the
// out-of-place ALLOCATE/redirect/indirect-CAS install chain, five NIC
// ops across two round trips.
func BenchmarkSimulatedPUT(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Keys = 1024
	e, st := KVCluster(cfg)
	value := make([]byte, cfg.ValueSize)
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := st.Put(int64(i)%cfg.Keys, value); err != nil {
				panic(err)
			}
		}
	})
	e.Run()
}

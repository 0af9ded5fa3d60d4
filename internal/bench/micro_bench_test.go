package bench

import (
	"testing"

	"prism/internal/model"
	"prism/internal/sim"
)

// kvClient0 forks the standard PRISM-KV cluster (one server, the
// Config.ClientMachines fleet) and returns its engine with client 0 and
// the event domain client 0 runs on.
func kvClient0(cfg Config) (*sim.Engine, store, *sim.Engine) {
	v := newEnv(cfg, 42, load{}, rackFabric(cfg))
	nic, meta := v.forkKV(model.SoftwarePRISM)
	m := v.clientMachines()[0]
	return v.e, kvClients(nic, meta, kvTune{})(m, 0), m.Domain()
}

// BenchmarkSimulatedGET measures one full PRISM-KV GET round trip through
// the simulator — client encode, fabric delivery, NIC chain execution
// (indirect read through the slot), response decode — the inner loop of
// every figure point.
func BenchmarkSimulatedGET(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Keys = 1024
	e, st, dom := kvClient0(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	dom.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := st.Get(p, int64(i)%cfg.Keys); err != nil {
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
	e, st, dom := kvClient0(cfg)
	value := make([]byte, cfg.ValueSize)
	b.ReportAllocs()
	b.ResetTimer()
	dom.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := st.Put(p, int64(i)%cfg.Keys, value); err != nil {
				panic(err)
			}
		}
	})
	e.Run()
}

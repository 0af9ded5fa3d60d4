package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"prism/internal/fabric"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
)

type kvEnv struct {
	e   *sim.Engine
	net *fabric.Network
	nic *rdma.Server
	srv *Server
	cli *rdma.Client
}

func newKVEnv(t *testing.T, opts Options, deploy model.Deployment) *kvEnv {
	t.Helper()
	return newKVEnvOn(t, opts, deploy, model.Rack)
}

// newKVEnvOn is newKVEnv on the given switch profile.
func newKVEnvOn(t *testing.T, opts Options, deploy model.Deployment, network model.SwitchProfile) *kvEnv {
	t.Helper()
	p := model.Default().WithNetwork(network)
	e := sim.NewEngine(1)
	net := fabric.New(e, p)
	nic := rdma.NewServer(net, "kv-srv", deploy)
	srv, err := NewServerOn(nic, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &kvEnv{e: e, net: net, nic: nic, srv: srv, cli: rdma.NewClient(net, "cli")}
}

func (v *kvEnv) client(id uint16) *Client {
	return NewClient(v.cli.Connect(v.nic), v.srv.Meta(), id)
}

func (v *kvEnv) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	v.e.Go("t", fn)
	v.e.Run()
}

func smallOpts() Options {
	o := DefaultOptions(64, 128)
	return o
}

// TestPutGetRoundTrip runs on the software stack and the projected
// hardware NIC in a rack, and on the software stack across a datacenter.
func TestPutGetRoundTrip(t *testing.T) {
	for _, row := range []struct {
		d       model.Deployment
		network model.SwitchProfile
	}{
		{model.SoftwarePRISM, model.Rack},
		{model.ProjectedHardwarePRISM, model.Rack},
		{model.SoftwarePRISM, model.Datacenter},
	} {
		where := fmt.Sprintf("%v on %s", row.d, row.network.Name)
		v := newKVEnvOn(t, smallOpts(), row.d, row.network)
		c := v.client(1)
		v.run(t, func(p *sim.Proc) {
			if err := c.Put(7, []byte("value-7")); err != nil {
				t.Errorf("%s: %v", where, err)
				return
			}
			got, err := c.Get(7)
			if err != nil {
				t.Errorf("%s: %v", where, err)
				return
			}
			if string(got) != "value-7" {
				t.Errorf("%s: got %q", where, got)
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	v := newKVEnv(t, smallOpts(), model.SoftwarePRISM)
	c := v.client(1)
	v.run(t, func(p *sim.Proc) {
		if _, err := c.Get(42); err != ErrNotFound {
			t.Errorf("missing key: %v", err)
		}
	})
}

func TestOverwrite(t *testing.T) {
	v := newKVEnv(t, smallOpts(), model.SoftwarePRISM)
	c := v.client(1)
	v.run(t, func(p *sim.Proc) {
		for ver := 0; ver < 5; ver++ {
			val := []byte(fmt.Sprintf("v%d", ver))
			if err := c.Put(3, val); err != nil {
				t.Error(err)
				return
			}
			got, err := c.Get(3)
			if err != nil || string(got) != string(val) {
				t.Errorf("after overwrite %d: %q, %v", ver, got, err)
				return
			}
		}
	})
}

func TestDelete(t *testing.T) {
	v := newKVEnv(t, smallOpts(), model.SoftwarePRISM)
	c := v.client(1)
	v.run(t, func(p *sim.Proc) {
		c.Put(9, []byte("doomed"))
		if err := c.Delete(9); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Get(9); err != ErrNotFound {
			t.Errorf("after delete: %v", err)
		}
		// Re-insert after delete works (slot reuse with a higher tag).
		if err := c.Put(9, []byte("reborn")); err != nil {
			t.Error(err)
			return
		}
		got, err := c.Get(9)
		if err != nil || string(got) != "reborn" {
			t.Errorf("after reinsert: %q, %v", got, err)
		}
	})
}

func TestServerLoadVisibleToClients(t *testing.T) {
	v := newKVEnv(t, smallOpts(), model.SoftwarePRISM)
	for k := int64(0); k < 10; k++ {
		if err := v.srv.Load(k, []byte(fmt.Sprintf("loaded-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	c := v.client(1)
	v.run(t, func(p *sim.Proc) {
		for k := int64(0); k < 10; k++ {
			got, err := c.Get(k)
			if err != nil || string(got) != fmt.Sprintf("loaded-%d", k) {
				t.Errorf("key %d: %q, %v", k, got, err)
			}
		}
	})
}

// TestKeyOutsideTableIsRejected: key k lives in slot k, so a key outside
// [0, NSlots) has no slot. Every PRISM-KV and Pilaf entry point refuses it
// with ErrKeyRange, or a Pilaf PUT RPC with its failure reply, and memory
// does not change; GetBatch visits it with the error, posts nothing for
// it and serves the keys beside it. Wrapping such a key onto another
// key's slot is what let a tombstone-free Delete lose a live key.
func TestKeyOutsideTableIsRejected(t *testing.T) {
	const nSlots = 16
	outside := []int64{-1, nSlots, 2*nSlots - 1, 1 << 40}
	opts := smallOpts()
	opts.NSlots = nSlots

	v := newKVEnv(t, opts, model.SoftwarePRISM)
	for _, k := range outside {
		if err := v.srv.Load(k, []byte("x")); !errors.Is(err, ErrKeyRange) {
			t.Errorf("Load(%d) = %v, want ErrKeyRange", k, err)
		}
	}
	if err := v.srv.Load(nSlots-1, []byte("last")); err != nil {
		t.Fatal(err)
	}
	c := v.client(1)
	space := v.srv.host.Space()
	before := spaceChecksum(space)
	v.run(t, func(p *sim.Proc) {
		served := v.e.Counters().RequestsServed
		for _, k := range outside {
			if err := c.Put(k, []byte("x")); !errors.Is(err, ErrKeyRange) {
				t.Errorf("Put(%d) = %v, want ErrKeyRange", k, err)
			}
			if _, err := c.Get(k); !errors.Is(err, ErrKeyRange) {
				t.Errorf("Get(%d) = %v, want ErrKeyRange", k, err)
			}
			if err := c.Delete(k); !errors.Is(err, ErrKeyRange) {
				t.Errorf("Delete(%d) = %v, want ErrKeyRange", k, err)
			}
		}
		if err := c.GetBatch(outside, func(i int, val []byte, err error) {
			if !errors.Is(err, ErrKeyRange) {
				t.Errorf("GetBatch visited key %d with %q, %v; want ErrKeyRange", outside[i], val, err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if v.e.Counters().RequestsServed != served {
			t.Errorf("out-of-range keys reached the server: %d requests", v.e.Counters().RequestsServed-served)
		}
		keys := []int64{nSlots - 1, nSlots, 3, -1}
		var visits []string
		if err := c.GetBatch(keys, func(i int, val []byte, err error) {
			visits = append(visits, fmt.Sprintf("%d:%s:%v", keys[i], val, errors.Is(err, ErrKeyRange) || err == ErrNotFound))
		}); err != nil {
			t.Fatal(err)
		}
		if want := []string{"15:last:false", "16::true", "3::true", "-1::true"}; !slices.Equal(visits, want) {
			t.Errorf("GetBatch visits %q, want %q", visits, want)
		}
	})
	if spaceChecksum(space) != before {
		t.Error("rejected keys changed PRISM-KV memory")
	}

	pv := newPilafEnv(t, opts, model.SoftwarePRISM)
	for _, k := range outside {
		if err := pv.srv.Load(k, []byte("x")); !errors.Is(err, ErrKeyRange) {
			t.Errorf("Pilaf Load(%d) = %v, want ErrKeyRange", k, err)
		}
	}
	pc := pv.client()
	pspace := pv.srv.host.Space()
	before = spaceChecksum(pspace)
	pv.e.Go("t", func(p *sim.Proc) {
		for _, k := range outside {
			if _, err := pc.Get(k); !errors.Is(err, ErrKeyRange) {
				t.Errorf("Pilaf Get(%d) = %v, want ErrKeyRange", k, err)
			}
			if err := pc.Put(k, []byte("x")); err == nil {
				t.Errorf("Pilaf PUT RPC of key %d succeeded", k)
			}
		}
	})
	pv.e.Run()
	if spaceChecksum(pspace) != before || len(pv.srv.extents.Slabs()) != 0 {
		t.Error("rejected PUT RPCs changed Pilaf memory or extents")
	}
}

func TestConcurrentPutsLastTagWins(t *testing.T) {
	v := newKVEnv(t, smallOpts(), model.SoftwarePRISM)
	a, b := v.client(1), v.client(2)
	var done sim.Time
	v.e.Go("a", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if err := a.Put(5, []byte(fmt.Sprintf("a-%d", i))); err != nil {
				t.Error(err)
			}
		}
	})
	v.e.Go("b", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if err := b.Put(5, []byte(fmt.Sprintf("b-%d", i))); err != nil {
				t.Error(err)
			}
		}
		done = p.Now()
	})
	v.e.Run()
	_ = done
	// Both writers completed; final value is one of the last writes and
	// the store remains readable and self-consistent.
	c := v.client(3)
	v.run(t, func(p *sim.Proc) {
		got, err := c.Get(5)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.HasPrefix(got, []byte("a-")) && !bytes.HasPrefix(got, []byte("b-")) {
			t.Errorf("final value %q", got)
		}
	})
}

func TestBufferReclamationKeepsPoolBounded(t *testing.T) {
	opts := smallOpts()
	opts.BuffersPerClass = 8 // tight pool: leaks would exhaust it fast
	v := newKVEnv(t, opts, model.SoftwarePRISM)
	c := v.client(1)
	c.Reclaim.Batch = 2
	v.run(t, func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if err := c.Put(1, []byte(fmt.Sprintf("gen-%03d", i))); err != nil {
				t.Errorf("put %d: %v (buffer leak?)", i, err)
				return
			}
			// Give the asynchronous frees time to land.
			if i%8 == 7 {
				p.Sleep(100 * time.Microsecond)
			}
		}
	})
}

// --- Pilaf ---

type pilafEnv struct {
	e   *sim.Engine
	nic *rdma.Server
	srv *PilafServer
	cli *rdma.Client
}

func newPilafEnv(t *testing.T, opts Options, deploy model.Deployment) *pilafEnv {
	t.Helper()
	p := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(2)
	net := fabric.New(e, p)
	nic := rdma.NewServer(net, "pilaf-srv", deploy)
	srv, err := NewPilafServer(nic, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &pilafEnv{e: e, nic: nic, srv: srv, cli: rdma.NewClient(net, "cli")}
}

func (v *pilafEnv) client() *PilafClient {
	return NewPilafClient(v.cli.Connect(v.nic), v.srv.Meta(), model.Default().PilafCRCCost)
}

func TestPilafPutGet(t *testing.T) {
	v := newPilafEnv(t, smallOpts(), model.HardwareRDMA)
	c := v.client()
	v.e.Go("t", func(p *sim.Proc) {
		if err := c.Put(11, []byte("pilaf-value")); err != nil {
			t.Error(err)
			return
		}
		got, err := c.Get(11)
		if err != nil || string(got) != "pilaf-value" {
			t.Errorf("get: %q, %v", got, err)
		}
		if _, err := c.Get(12); err != ErrNotFound {
			t.Errorf("missing: %v", err)
		}
	})
	v.e.Run()
}

func TestPilafOverwriteReusesExtents(t *testing.T) {
	opts := smallOpts()
	opts.BuffersPerClass = 4 // extents sized for 4 entries
	v := newPilafEnv(t, opts, model.HardwareRDMA)
	c := v.client()
	v.e.Go("t", func(p *sim.Proc) {
		val := make([]byte, 64)
		for i := 0; i < 50; i++ {
			val[0] = byte(i)
			if err := c.Put(1, val); err != nil {
				t.Errorf("put %d: %v (extent leak?)", i, err)
				return
			}
		}
		got, err := c.Get(1)
		if err != nil || got[0] != 49 {
			t.Errorf("final: %v, %v", got[0], err)
		}
	})
	v.e.Run()
}

type modelOp struct {
	kind byte
	key  int64
	val  byte
}

// Property: a random op sequence applied to PRISM-KV matches a map-based
// model (single client, so no concurrency ambiguity).
func TestQuickModelCheck(t *testing.T) {
	f := func(raw []uint32) bool {
		ops := make([]modelOp, 0, len(raw))
		for _, r := range raw {
			ops = append(ops, modelOp{kind: byte(r % 3), key: int64(r/3) % 8, val: byte(r >> 13)})
		}
		if len(ops) > 40 {
			ops = ops[:40]
		}
		return runModelCheck(ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(15))}); err != nil {
		t.Fatal(err)
	}
}

// runModelCheck validates a random op sequence against a map model.
func runModelCheck(ops []modelOp) bool {
	p := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(3)
	net := fabric.New(e, p)
	nic := rdma.NewServer(net, "srv", model.SoftwarePRISM)
	srv, err := NewServerOn(nic, DefaultOptions(64, 32))
	if err != nil {
		return false
	}
	cli := rdma.NewClient(net, "cli")
	c := NewClient(cli.Connect(nic), srv.Meta(), 1)
	modelMap := map[int64][]byte{}
	okAll := true
	e.Go("t", func(pr *sim.Proc) {
		for _, o := range ops {
			switch o.kind {
			case 0: // put
				v := []byte{o.val, o.val ^ 0xFF}
				if err := c.Put(o.key, v); err != nil {
					okAll = false
					return
				}
				modelMap[o.key] = v
			case 1: // get
				got, err := c.Get(o.key)
				want, exists := modelMap[o.key]
				if exists {
					if err != nil || !bytes.Equal(got, want) {
						okAll = false
						return
					}
				} else if err != ErrNotFound {
					okAll = false
					return
				}
			case 2: // delete
				if err := c.Delete(o.key); err != nil {
					okAll = false
					return
				}
				delete(modelMap, o.key)
			}
		}
	})
	e.Run()
	return okAll
}

func TestPilafCRCCatchesTornReads(t *testing.T) {
	// A reader hammering a key that a writer updates in place must never
	// observe a half-written entry: the self-verifying CRCs detect torn
	// state and the reader retries (§6, the reason Pilaf carries CRCs).
	v := newPilafEnv(t, smallOpts(), model.HardwareRDMA)
	// Every version's value differs in EVERY byte, so any torn mix of two
	// versions is detectable (a torn read that splices versions sharing a
	// byte prefix would be indistinguishable from a clean one).
	val := func(ver int) []byte { return bytes.Repeat([]byte{byte(ver)}, 24) }
	if err := v.srv.Load(1, val(0)); err != nil {
		t.Fatal(err)
	}
	writer := v.client()
	reader := v.client()
	v.e.Go("writer", func(p *sim.Proc) {
		for i := 1; i <= 200; i++ {
			if err := writer.Put(1, val(i)); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
	})
	v.e.Go("reader", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			// Vary the phase relative to the writer so the deterministic
			// schedules sweep across the torn windows.
			p.Sleep(time.Duration(i%23) * 50 * time.Nanosecond)
			got, err := reader.Get(1)
			if err != nil {
				t.Errorf("get %d: %v", i, err)
				return
			}
			if len(got) != 24 {
				t.Errorf("bad length %d", len(got))
				return
			}
			for _, b := range got {
				if b != got[0] {
					t.Errorf("torn value leaked through CRC: %v", got)
					return
				}
			}
		}
	})
	v.e.Run()
	if reader.Retries == 0 {
		t.Fatal("no CRC retries under a write-heavy race — torn state never observed")
	}
	t.Logf("CRC retries: %d", reader.Retries)
}

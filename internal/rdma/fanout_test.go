package rdma

import (
	"encoding/binary"
	"testing"

	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/wire"
)

// fanEnv is a client machine with a connection to a fast server holding
// cells 0..n-1 (cell i stores i) and one to a slow server.
type fanEnv struct {
	*env
	slow     *Server
	slowConn *Conn
}

const fanCells = 24

func newFanEnv(t *testing.T) *fanEnv {
	t.Helper()
	v := newEnv(t, model.HardwareRDMA, nil)
	for i := uint64(0); i < fanCells; i++ {
		if err := v.srv.Space().WriteU64(v.reg.Key, v.reg.Base+memory.Addr(8*i), i); err != nil {
			t.Fatal(err)
		}
	}
	slow := NewServer(v.net, "slow", model.SoftwarePRISM)
	reg, err := slow.Space().Register(4096)
	if err != nil {
		t.Fatal(err)
	}
	slow.SetConnTempKey(reg.Key)
	if err := slow.Space().WriteU64(reg.Key, reg.Base, 0xfeed); err != nil {
		t.Fatal(err)
	}
	return &fanEnv{env: v, slow: slow, slowConn: v.cli.Connect(slow)}
}

// postCells posts one single-READ chain per cell on the fast connection.
func (v *fanEnv) postCells(f *Fanout, cells ...uint64) {
	for _, i := range cells {
		ops := v.conn.Ops(1)
		ops[0] = prism.Read(v.reg.Key, v.reg.Base+memory.Addr(8*i), 8)
		f.Post(v.conn, ops)
	}
}

// postSlow posts a long chain on the slow connection: it completes after
// everything the fast connection was sent.
func (v *fanEnv) postSlow(f *Fanout) {
	const n = 48
	reg := v.slow.Space().Regions()[0]
	ops := v.slowConn.Ops(n)
	for i := range ops {
		ops[i] = prism.Read(reg.Key, reg.Base, 8)
	}
	f.Post(v.slowConn, ops)
}

func cell(t *testing.T, r []wire.Result) uint64 {
	t.Helper()
	if len(r) != 1 || r[0].Status != wire.StatusOK || len(r[0].Data) != 8 {
		t.Fatalf("cell read came back as %+v", r)
	}
	return binary.LittleEndian.Uint64(r[0].Data)
}

// TestFanoutResultsInPostingOrder holds the fan-out's contract: one result
// slice per chain in posting order, whatever order the chains complete in
// and however far a train outruns the send window. The slow chain is
// posted first and finishes last, so every fast chain's response sits in
// the server's replay ring — whose slots the train's chains past the
// window recycle — until the round ends; the results must be the copies
// taken at each completion, not views of the ring.
func TestFanoutResultsInPostingOrder(t *testing.T) {
	v := newFanEnv(t)
	var f Fanout
	v.run(t, func(p *sim.Proc) {
		if got := f.Wait(p); len(got) != 0 {
			t.Errorf("a round with nothing posted returned %d results", len(got))
		}
		start := p.Now()
		if f.Wait(p); p.Now() != start {
			t.Error("waiting for nothing took virtual time")
		}

		train := make([]uint64, 2*replayDepth+4) // wraps the ring twice
		for i := range train {
			train[i] = uint64(i)
		}
		v.postSlow(&f)
		v.postCells(&f, train...)
		res := f.Wait(p)
		if len(res) != 1+len(train) {
			t.Fatalf("%d results for %d chains", len(res), 1+len(train))
		}
		if len(res[0]) != 48 || binary.LittleEndian.Uint64(res[0][47].Data) != 0xfeed {
			t.Errorf("the slow chain's results are not first: %d ops", len(res[0]))
		}
		for i, want := range train {
			if got := cell(t, res[1+i]); got != want {
				t.Errorf("chain %d of the train read cell %d, want %d (a recycled replay slot showed through)", i, got, want)
			}
		}

		// The results are the caller's until the next round: traffic on
		// the connection, which recycles every replay slot again, does not
		// reach them.
		for i := uint64(0); i < 2*replayDepth; i++ {
			v.conn.Issue(p, prism.Read(v.reg.Key, v.reg.Base+memory.Addr(8*(fanCells-1)), 8))
		}
		for i, want := range train {
			if got := cell(t, res[1+i]); got != want {
				t.Errorf("after later traffic chain %d reads %d, want %d", i, got, want)
			}
		}

		// A round of a shape already seen reuses the fan-out's storage: it
		// allocates no more than the same chains pipelined by hand (a
		// pipelined train allocates in the server's backlog).
		cells := []uint64{3, 2, 1}
		round := func() {
			v.postCells(&f, cells...)
			if r := f.Wait(p); cell(t, r[0]) != 3 || cell(t, r[2]) != 1 {
				t.Error("second round out of order")
			}
		}
		futs := make([]*sim.Future[[]wire.Result], 0, len(cells))
		byHand := func() {
			futs = futs[:0]
			for _, i := range cells {
				ops := v.conn.Ops(1)
				ops[0] = prism.Read(v.reg.Key, v.reg.Base+memory.Addr(8*i), 8)
				futs = append(futs, v.conn.IssueAsync(ops))
			}
			for _, fut := range futs {
				fut.Wait(p)
			}
		}
		round()
		byHand()
		if fan, hand := testing.AllocsPerRun(50, round), testing.AllocsPerRun(50, byHand); fan > hand {
			t.Errorf("a warmed fan-out round allocates %.1f times, the same chains pipelined by hand %.1f", fan, hand)
		}
	})
}

// TestFanoutResumesInLastCompletion: the waiting process resumes at the
// instant, and inside the event, of the last chain to complete — the
// timing of waiting on each chain's future in turn.
func TestFanoutResumesInLastCompletion(t *testing.T) {
	measure := func(wait func(v *fanEnv, p *sim.Proc)) sim.Time {
		v := newFanEnv(t)
		var at sim.Time
		v.run(t, func(p *sim.Proc) {
			wait(v, p)
			at = p.Now()
		})
		return at
	}
	fan := measure(func(v *fanEnv, p *sim.Proc) {
		var f Fanout
		v.postSlow(&f)
		v.postCells(&f, 1, 2, 3)
		f.Wait(p)
	})
	// The same posts waited on future by future, slow chain first.
	futures := measure(func(v *fanEnv, p *sim.Proc) {
		reg := v.slow.Space().Regions()[0]
		ops := v.slowConn.Ops(48)
		for i := range ops {
			ops[i] = prism.Read(reg.Key, reg.Base, 8)
		}
		futs := []*sim.Future[[]wire.Result]{v.slowConn.IssueAsync(ops)}
		for i := uint64(1); i <= 3; i++ {
			ops := v.conn.Ops(1)
			ops[0] = prism.Read(v.reg.Key, v.reg.Base+memory.Addr(8*i), 8)
			futs = append(futs, v.conn.IssueAsync(ops))
		}
		for _, fut := range futs {
			fut.Wait(p)
		}
	})
	if fan != futures || fan == 0 {
		t.Fatalf("fan-out resumed at %v, future-by-future waiting at %v", fan, futures)
	}
}

// TestFanoutIsOneMachines: completions of one fan-out all run on one event
// domain, the client machine's; a connection from another machine is a
// programming error caught at Post.
func TestFanoutIsOneMachines(t *testing.T) {
	v := newFanEnv(t)
	other := NewClient(v.net, "other").Connect(v.srv)
	var f Fanout
	v.postCells(&f, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("a Fanout accepted connections of two client machines")
		}
	}()
	ops := other.Ops(1)
	ops[0] = prism.Read(v.reg.Key, v.reg.Base, 8)
	f.Post(other, ops)
}

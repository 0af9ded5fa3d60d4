package rdma

import (
	"encoding/binary"
	"fmt"
	"testing"

	"prism/internal/fabric"
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
		if got := f.Wait(); len(got) != 0 {
			t.Errorf("a round with nothing posted returned %d results", len(got))
		}
		start := p.Now()
		if f.Wait(); p.Now() != start {
			t.Error("waiting for nothing took virtual time")
		}

		train := make([]uint64, 2*replayDepth+4) // wraps the ring twice
		for i := range train {
			train[i] = uint64(i)
		}
		v.postSlow(&f)
		v.postCells(&f, train...)
		res := f.Wait()
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
			v.conn.Issue([]wire.Op{prism.Read(v.reg.Key, v.reg.Base+memory.Addr(8*(fanCells-1)), 8)})
		}
		for i, want := range train {
			if got := cell(t, res[1+i]); got != want {
				t.Errorf("after later traffic chain %d reads %d, want %d", i, got, want)
			}
		}

		// A round of a shape already seen reuses the fan-out's storage: it
		// allocates no more than the same chains pipelined by hand — all
		// but the last fire-and-forget, the last waited on, which on one
		// connection answers after the others (a pipelined train allocates
		// in the server's backlog).
		cells := []uint64{3, 2, 1}
		round := func() {
			v.postCells(&f, cells...)
			if r := f.Wait(); cell(t, r[0]) != 3 || cell(t, r[2]) != 1 {
				t.Error("second round out of order")
			}
		}
		byHand := func() {
			for n, i := range cells {
				ops := v.conn.Ops(1)
				ops[0] = prism.Read(v.reg.Key, v.reg.Base+memory.Addr(8*i), 8)
				if n < len(cells)-1 {
					v.conn.IssueAsync(ops)
				} else {
					v.conn.Issue(ops)
				}
			}
		}
		round()
		byHand()
		if fan, hand := testing.AllocsPerRun(50, round), testing.AllocsPerRun(50, byHand); fan > hand {
			t.Errorf("a warmed fan-out round allocates %.1f times, the same chains pipelined by hand %.1f", fan, hand)
		}
	})
}

// completions records a fan-out's completions through OnDone, and marks
// each one's event with a same-instant event behind it: a process resumed
// inside the completing event logs before that mark.
type completions struct {
	e     *sim.Engine
	slots []int
	at    []sim.Time
	log   []string
}

func (c *completions) hook(f *Fanout) {
	f.OnDone = func(slot int, _ []wire.Result) {
		c.slots = append(c.slots, slot)
		c.at = append(c.at, c.e.Now())
		c.log = append(c.log, fmt.Sprint("done ", slot))
		c.e.Schedule(0, func() { c.log = append(c.log, fmt.Sprint("after ", slot)) })
	}
}

// TestFanoutResumesInLastCompletion: Wait resumes the process at the
// instant, and inside the event, of the last chain to complete.
func TestFanoutResumesInLastCompletion(t *testing.T) {
	v := newFanEnv(t)
	var f Fanout
	c := &completions{e: v.e}
	c.hook(&f)
	var at sim.Time
	v.run(t, func(p *sim.Proc) {
		v.postSlow(&f)
		v.postCells(&f, 1, 2, 3)
		f.Wait()
		at = p.Now()
		c.log = append(c.log, "resumed")
	})
	if fmt.Sprint(c.slots) != "[1 2 3 0]" {
		t.Fatalf("completion order %v, want the slow chain last", c.slots)
	}
	if at != c.at[3] || at == 0 {
		t.Fatalf("Wait resumed at %v, the last chain completed at %v", at, c.at[3])
	}
	if want := []string{"done 0", "resumed", "after 0"}; fmt.Sprint(c.log[len(c.log)-3:]) != fmt.Sprint(want) {
		t.Fatalf("log ends %v, want %v: the process resumes inside the last completion", c.log[len(c.log)-3:], want)
	}
}

// TestFanoutWaitFirst holds the quorum wait: the first k chains to
// complete, in completion order with their posting positions, at the k-th
// completion's instant and inside its event.
func TestFanoutWaitFirst(t *testing.T) {
	v := newFanEnv(t)
	var f Fanout
	c := &completions{e: v.e}
	c.hook(&f)
	v.run(t, func(p *sim.Proc) {
		v.postSlow(&f)
		v.postCells(&f, 7, 8, 9)
		got := f.WaitFirst(2)
		c.log = append(c.log, "resumed")
		if len(got) != 2 || got[0].Slot != 1 || got[1].Slot != 2 {
			t.Fatalf("WaitFirst(2) returned %+v, want slots 1 and 2", got)
		}
		if cell(t, got[0].Results) != 7 || cell(t, got[1].Results) != 8 {
			t.Error("WaitFirst's results are not its chains'")
		}
		if p.Now() != c.at[1] {
			t.Errorf("WaitFirst(2) resumed at %v, the second completion was at %v", p.Now(), c.at[1])
		}
		if fmt.Sprint(c.log) != "[done 1 after 1 done 2 resumed]" {
			t.Errorf("log %v: the process must resume inside the second completion", c.log)
		}

		// Every chain, in completion order: not posting order.
		v.postSlow(&f)
		v.postCells(&f, 4, 5)
		var slots []int
		for _, r := range f.WaitFirst(3) {
			slots = append(slots, r.Slot)
		}
		if fmt.Sprint(slots) != "[1 2 0]" {
			t.Errorf("WaitFirst(3) slots %v, want completion order [1 2 0]", slots)
		}
		if got := f.WaitFirst(0); len(got) != 0 {
			t.Errorf("WaitFirst(0) returned %d chains", len(got))
		}

		// A quorum already complete when the wait starts returns at once.
		v.postCells(&f, 1, 2, 3)
		p.Sleep(sim.Duration(1e6))
		start := p.Now()
		if got := f.WaitFirst(2); len(got) != 2 || got[0].Slot != 0 || got[1].Slot != 1 || p.Now() != start {
			t.Errorf("an already complete quorum returned %+v after %v", got, p.Now().Sub(start))
		}
	})
}

// TestFanoutStragglerNeverInLaterRound: a chain still in flight when the
// next round opens completes into that round's lifetime, at the same
// posting position as one of its chains; OnDone sees it, and the round's
// results stay its own.
func TestFanoutStragglerNeverInLaterRound(t *testing.T) {
	v := newFanEnv(t)
	reg := v.slow.Space().Regions()[0]
	if err := v.slow.Space().WriteU64(reg.Key, reg.Base+8, 0xbeef); err != nil {
		t.Fatal(err)
	}
	var f Fanout
	var open bool
	var during []int
	f.OnDone = func(slot int, _ []wire.Result) {
		if open {
			during = append(during, slot)
		}
	}
	v.run(t, func(p *sim.Proc) {
		v.postSlow(&f) // slot 0: reads 0xfeed, still in flight after the quorum
		v.postCells(&f, 1)
		if got := f.WaitFirst(1); got[0].Slot != 1 {
			t.Fatalf("first round's quorum is slot %d", got[0].Slot)
		}

		// Slot 0 again, on the same connection, so it answers after the
		// straggler: reads 0xbeef.
		open = true
		ops := v.slowConn.Ops(1)
		ops[0] = prism.Read(reg.Key, reg.Base+8, 8)
		f.Post(v.slowConn, ops)
		v.postCells(&f, 5)
		res := f.Wait()
		open = false
		if fmt.Sprint(during) != "[1 0 0]" && fmt.Sprint(during) != "[0 1 0]" {
			t.Fatalf("completions while the second round was open: %v, want the straggler among them", during)
		}
		if len(res) != 2 || cell(t, res[0]) != 0xbeef || cell(t, res[1]) != 5 {
			t.Fatalf("second round's results %+v: the straggler landed in them", res)
		}
	})
}

// TestFanoutServerNeverAnswers: with one of three servers silent, a
// quorum of two finishes every round; the silent server's chains stay
// outstanding, queue behind its full send window, and never complete.
func TestFanoutServerNeverAnswers(t *testing.T) {
	v := newFanEnv(t)
	dead := NewServer(v.net, "dead", model.SoftwarePRISM)
	dead.Node().SetHandler(func(fabric.Message) {})
	deadConn := v.cli.Connect(dead)
	var f Fanout
	f.OnDone = func(slot int, _ []wire.Result) {
		if slot == 2 {
			t.Error("the silent server answered")
		}
	}
	const rounds = 3 * replayDepth
	done := 0
	v.run(t, func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			v.postCells(&f, 6)
			v.postSlow(&f)
			ops := deadConn.Ops(1)
			ops[0] = prism.Read(0, 0, 8)
			f.Post(deadConn, ops)
			got := f.WaitFirst(2)
			if got[0].Slot != 0 || got[1].Slot != 1 {
				t.Fatalf("round %d: quorum slots %d, %d", r, got[0].Slot, got[1].Slot)
			}
			done++
		}
	})
	if done != rounds {
		t.Fatalf("%d of %d rounds finished", done, rounds)
	}
	if n := deadConn.win.InFlight(); n != replayDepth {
		t.Fatalf("%d requests on the wire to the silent server, want a full window of %d", n, replayDepth)
	}
}

// TestFanoutIsOneMachines: a fan-out belongs to one process, so all its
// chains leave from one client machine; a connection from another machine
// is a programming error caught at Post.
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

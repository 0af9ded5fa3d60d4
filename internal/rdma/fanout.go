package rdma

import (
	"slices"

	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

// Fanout is how one simulated process posts several chains at once and
// waits for them — §7.3's and §8.2's "in parallel": Post each chain on any
// of the process's connections, then Wait for every result, one slice per
// chain in posting order, or WaitFirst for the first k chains to complete —
// the f+1 of 2f+1 a quorum protocol moves on with. A round runs from its
// first Post to its wait; a Fanout is reused round after round and, like
// the connections under it, belongs to one process.
//
// Results are the caller's. Each chain's results (payloads included) are
// copied into the Fanout's storage inside the event that completes the
// chain, and stay valid until the next round's first Post. The copy is
// what makes a train of any length correct: the send window admits request
// N+replayDepth on a connection the moment N is answered, and the server
// builds its response in N's replay slot (acquireResp), so a view of
// response N that is only read once the whole train has finished shows
// N+replayDepth's results instead. Copying at completion needs no argument
// about the order connections of different speeds answer in.
//
// Stragglers: a chain still in flight when its round's wait returns (a
// slow replica, or one that never answers) belongs to no later round. Its
// results are never copied and never appear in another round's results;
// only OnDone sees it, whenever it completes.
//
// Timing: the process resumes inside the completion that satisfies its
// wait — the last chain's for Wait, the k-th chain's for WaitFirst. The
// copy costs host time, not virtual time.
type Fanout struct {
	// OnDone, when set, sees every chain this Fanout posts as it completes,
	// with its posting position in its round: inside the completing event,
	// before the results are copied and before the process resumes. It is
	// set once, by the owner, and is how the owner does per-chain work for
	// chains it stopped waiting for. res is valid only during the call.
	OnDone func(slot int, res []wire.Result)

	m     *Client   // the client machine every chain is posted from
	proc  *sim.Proc // parked in a wait until need chains have completed
	need  int
	round uint64 // counts rounds; a chain lands only in the round it was posted in
	open  bool   // a round has been posted and its wait has not returned

	spans   []span          // per chain, in posting order: its cut of results
	results []wire.Result   // every completed chain's results, back to back
	order   []int           // the round's completed chains, in completion order
	data    []byte          // arena the results' payloads are copied into
	views   [][]wire.Result // what Wait returns
	replies []Reply         // what WaitFirst returns
}

type span struct{ off, n int }

// Reply is one completed chain of a round: its posting position and its
// results.
type Reply struct {
	Slot    int
	Results []wire.Result
}

// Post transmits ops as one chain on c as the next chain of the current
// round, opening a round — and dropping the previous round's results and
// stragglers — if none is open.
func (f *Fanout) Post(c *Conn, ops []wire.Op) {
	if f.m == nil {
		f.m = c.client
	} else if f.m != c.client {
		panic("rdma: one Fanout posting from two client machines")
	}
	if !f.open {
		f.open = true
		f.round++
		f.spans, f.results, f.order, f.data = f.spans[:0], f.results[:0], f.order[:0], f.data[:0]
	}
	e := c.prepare(ops)
	e.X.fan, e.X.round, e.X.slot = f, f.round, len(f.spans)
	off := len(f.results)
	f.spans = append(f.spans, span{off, len(ops)})
	f.results = slices.Grow(f.results, len(ops))[:off+len(ops)]
	c.win.Enqueue(e)
}

// deliver hands one completed chain to OnDone and, unless it is a
// straggler, takes ownership of its results; the completion that
// satisfies a parked wait resumes the process.
func (f *Fanout) deliver(round uint64, slot int, res []wire.Result) {
	if f.OnDone != nil {
		f.OnDone(slot, res)
	}
	if round != f.round || !f.open {
		return
	}
	s := f.spans[slot]
	own := f.results[s.off : s.off+s.n]
	copy(own, res)
	for i := range own {
		if d := own[i].Data; len(d) > 0 {
			own[i].Data = transport.CarveArena(&f.data, uint64(len(d)))
			copy(own[i].Data, d)
		}
	}
	f.order = append(f.order, slot)
	if p := f.proc; p != nil && len(f.order) == f.need {
		f.proc = nil
		p.Resume()
	}
}

// await parks p until need chains of the open round have completed, then
// ends the round: chains still in flight are stragglers from here on.
func (f *Fanout) await(p *sim.Proc, need int) {
	if need > len(f.spans) || (need > 0 && !f.open) {
		panic("rdma: waiting for more chains than the round posted")
	}
	if len(f.order) < need {
		f.proc, f.need = p, need
		p.Park()
	}
	f.open = false
}

// Wait parks p until every chain posted this round has completed and
// returns their results in posting order, ending the round. With nothing
// posted it returns at once with no results.
func (f *Fanout) Wait(p *sim.Proc) [][]wire.Result {
	f.views = f.views[:0]
	if !f.open {
		return f.views
	}
	f.await(p, len(f.spans))
	for _, s := range f.spans {
		f.views = append(f.views, f.results[s.off:s.off+s.n])
	}
	return f.views
}

// WaitFirst parks p until k chains posted this round have completed and
// returns those k in completion order, each with its posting position,
// ending the round. The rest stay in flight as stragglers.
func (f *Fanout) WaitFirst(p *sim.Proc, k int) []Reply {
	f.await(p, k)
	f.replies = f.replies[:0]
	for _, slot := range f.order[:k] {
		s := f.spans[slot]
		f.replies = append(f.replies, Reply{slot, f.results[s.off : s.off+s.n]})
	}
	return f.replies
}

package rdma

import (
	"slices"

	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

// Fanout is how one simulated process posts several chains at once and
// waits for all of them — §7.3's and §8.2's "in parallel": Post each chain
// on any of the process's connections, then Wait for the results, one
// slice per chain in posting order. A round runs from its first Post to
// its Wait; a Fanout is reused round after round and, like the
// connections under it, belongs to one process.
//
// Results are the caller's. Each chain's results (payloads included) are
// copied into the Fanout's storage inside the event that completes the
// chain, and stay valid until the next round's first Post. The copy is
// what makes a train of any length correct: the send window admits request
// N+replayDepth on a connection the moment N is answered, and the server
// builds its response in N's replay slot (acquireResp), so a view of
// response N that is only read once the whole train has finished shows
// N+replayDepth's results instead. A process that waits on one future at a
// time in posting order can copy in time on a single connection, but not
// across connections of different speeds; copying at completion needs no
// such argument.
//
// Timing is that of waiting on each chain's future in turn: the process
// resumes inside the completion of whichever chain finishes last. The copy
// costs host time, not virtual time.
type Fanout struct {
	m       *Client     // the client machine every chain is posted from
	done    *sim.Signal // fired by the last completion when Wait is parked on it
	waiting bool
	open    bool // a round has been posted and not yet collected
	left    int  // chains of the round still in flight

	spans   []span          // per chain, in posting order: its cut of results
	results []wire.Result   // every chain's results, back to back
	views   [][]wire.Result // what Wait returns
	data    []byte          // arena the results' payloads are copied into
}

type span struct{ off, n int }

// Post transmits ops as one chain on c (see Conn.IssueAsync) as the next
// chain of the current round, opening a round — and dropping the previous
// round's results — if none is open.
func (f *Fanout) Post(c *Conn, ops []wire.Op) {
	if f.m == nil {
		f.m = c.client
		f.done = sim.NewSignal()
	} else if f.m != c.client {
		panic("rdma: one Fanout posting from two client machines")
	}
	if !f.open {
		f.open = true
		f.spans, f.results, f.data = f.spans[:0], f.results[:0], f.data[:0]
	}
	e := c.prepare(ops)
	e.X.fan, e.X.slot = f, len(f.spans)
	off := len(f.results)
	f.spans = append(f.spans, span{off, len(ops)})
	f.results = slices.Grow(f.results, len(ops))[:off+len(ops)]
	f.left++
	c.win.Enqueue(e)
}

// deliver takes ownership of one completed chain's results; the last
// delivery of a round resumes the process parked in Wait.
func (f *Fanout) deliver(slot int, res []wire.Result) {
	s := f.spans[slot]
	own := f.results[s.off : s.off+s.n]
	copy(own, res)
	for i := range own {
		if d := own[i].Data; len(d) > 0 {
			own[i].Data = transport.CarveArena(&f.data, uint64(len(d)))
			copy(own[i].Data, d)
		}
	}
	if f.left--; f.left == 0 && f.waiting {
		sim.Fire(f.done)
	}
}

// Wait parks p until every chain posted this round has completed and
// returns their results in posting order, ending the round. With nothing
// posted it returns at once with no results.
func (f *Fanout) Wait(p *sim.Proc) [][]wire.Result {
	f.views = f.views[:0]
	if !f.open {
		return f.views
	}
	if f.left > 0 {
		f.waiting = true
		f.done.Wait(p)
		f.waiting = false
		f.done.Reset()
	}
	f.open = false
	for _, s := range f.spans {
		f.views = append(f.views, f.results[s.off:s.off+s.n])
	}
	return f.views
}

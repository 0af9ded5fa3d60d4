package transport

import (
	"fmt"
	"slices"
	"sync"

	"prism/internal/wire"
)

// Fanout is one owner's chains in flight together over a group of n
// issuers (DESIGN.md §15): Post each chain on the group's i-th issuer, then
// Wait for every result in posting order, or WaitFirst for the first k
// chains to answer well. A round runs from its first Post to its wait.
// Each chain's results are copied into the Fanout's storage as it
// completes and stay valid until the next round's first Post. A chain
// still in flight when its round's wait returns is a straggler: only
// OnDone ever sees it. A FanoutBinding carries the chains; NewFanout asks
// the group's issuers for it.
type Fanout struct {
	// OnDone, when set, sees every chain that completes with results, with
	// its posting position, before the copy and before the owner resumes;
	// res is valid only during the call.
	OnDone func(slot int, res []wire.Result)
	// Good, when set, says which completed chains count toward WaitFirst's
	// k; unset, every chain with results does.
	Good func(res []wire.Result) bool

	b       FanoutBinding
	round   uint64 // a chain lands only in the round it was posted in
	open    bool   // a round has been posted and its wait has not returned
	waiting bool   // a wait blocks until need chains answered well, or all answered
	need    int
	good    int
	err     error // the round's first transport error

	spans   []span        // per chain, in posting order
	results []wire.Result // every completed chain's results, back to back
	order   []int         // the round's completed chains, in completion order
	data    []byte        // arena the results' payloads are copied into
	views   [][]wire.Result
	replies []Reply
}

type span struct {
	off, n int
	good   bool
	err    error
}

// Reply is one completed chain of a round: its posting position and its
// results, or the transport error that failed it (Results then empty).
type Reply struct {
	Slot    int
	Results []wire.Result
	Err     error
}

// FanoutBinding carries a Fanout's chains over one transport.
type FanoutBinding interface {
	// Send transmits ops on the group's i-th issuer as chain slot of round,
	// whose completion it hands to the fan-out's Deliver.
	Send(i int, ops []wire.Op, round uint64, slot int)
	// Await is called at each wait of an open round; when pending, it
	// returns once Deliver has reported the wait satisfied.
	Await(pending bool)
}

// Deliver hands a binding's completion of chain slot of round — its
// results, or the transport error that failed it — to its fan-out, and
// reports whether this completion satisfied the wait in progress.
type Deliver func(round uint64, slot int, res []wire.Result, err error) bool

// Post transmits ops as the next chain of the current round on the
// group's i-th issuer, opening a round if none is open.
func (f *Fanout) Post(i int, ops []wire.Op) {
	if !f.open {
		f.open, f.good, f.err = true, 0, nil
		f.round++
		f.spans, f.results, f.order, f.data = f.spans[:0], f.results[:0], f.order[:0], f.data[:0]
	}
	off := len(f.results)
	f.spans = append(f.spans, span{off: off, n: len(ops)})
	f.results = slices.Grow(f.results, len(ops))[:off+len(ops)]
	f.b.Send(i, ops, f.round, len(f.spans)-1)
}

// deliver is the fan-out's Deliver: a completion goes to OnDone and, unless
// it is a straggler, to the round.
func (f *Fanout) deliver(round uint64, slot int, res []wire.Result, err error) bool {
	if err == nil && f.OnDone != nil {
		f.OnDone(slot, res)
	}
	if round != f.round || !f.open {
		return false
	}
	s := &f.spans[slot]
	if s.err = err; err != nil {
		s.n = 0
		if f.err == nil {
			f.err = err
		}
	} else {
		own := f.results[s.off : s.off+s.n]
		copy(own, res)
		for i := range own {
			if d := own[i].Data; len(d) > 0 {
				own[i].Data = CarveArena(&f.data, uint64(len(d)))
				copy(own[i].Data, d)
			}
		}
		if s.good = f.Good == nil || f.Good(own); s.good {
			f.good++
		}
	}
	f.order = append(f.order, slot)
	if f.waiting && (f.good >= f.need || len(f.order) == len(f.spans)) {
		f.waiting = false
		return true
	}
	return false
}

// await blocks until k chains of the open round answered well, or all
// answered, then ends the round.
func (f *Fanout) await(k int) {
	if k > len(f.spans) || (k > 0 && !f.open) {
		panic("transport: waiting for more chains than the round posted")
	}
	if f.open {
		f.need, f.waiting = k, f.good < k && len(f.order) < len(f.spans)
		f.b.Await(f.waiting)
		f.open = false
	}
}

// Wait blocks until every chain posted this round has completed and
// returns their results in posting order, or the round's first transport
// error. With nothing posted it returns at once with no results.
func (f *Fanout) Wait() ([][]wire.Result, error) {
	f.views = f.views[:0]
	if !f.open {
		return f.views, nil
	}
	if f.await(len(f.spans)); f.err != nil {
		return nil, f.err
	}
	for _, s := range f.spans {
		f.views = append(f.views, f.results[s.off:s.off+s.n])
	}
	return f.views, nil
}

// WaitFirst blocks until k chains posted this round have answered well, or
// every chain has answered when fewer can, and returns the chains that had
// answered by then, in completion order. The rest are stragglers.
func (f *Fanout) WaitFirst(k int) []Reply {
	f.await(k)
	f.replies = f.replies[:0]
	for good, n := 0, 0; good < k && n < len(f.order); n++ {
		s := f.spans[f.order[n]]
		f.replies = append(f.replies, Reply{f.order[n], f.results[s.off : s.off+s.n], s.err})
		if s.good {
			good++
		}
	}
	return f.replies
}

// NewFanout returns a fan-out over group: Post(i, ops) posts on group[i],
// and a group may name one issuer more than once. It is the only way to
// post several chains and wait for their results. The binding comes from
// the issuers themselves, through the optional method
// BindFanout(group, deliver) FanoutBinding that both transports'
// connections have (*Conn here, *rdma.Conn on the simulator), so a
// protocol never names its transport. Every issuer of a group is of one
// kind.
func NewFanout(group []Issuer) *Fanout {
	src, ok := group[0].(interface {
		BindFanout([]Issuer, Deliver) FanoutBinding
	})
	if !ok {
		panic(fmt.Sprintf("transport: %T cannot carry a fan-out", group[0]))
	}
	f := &Fanout{}
	f.b = src.BindFanout(group, f.deliver)
	return f
}

// BindFanout binds a fan-out over live connections, group's issuers all
// being *Conn: Send(i, …) posts on group[i], staging without a doorbell;
// a wait rings each connection posted to once. Each socket of the group
// has its goroutine read for good (see Client.readForGood), so one silent
// peer does not hold up the rest and no round waits to wake a reader. The
// reader hands completions to an inbox the owner drains; OnDone and the
// copy run on the owner's goroutine: inside the wait for chains that
// complete before it is satisfied, at the owner's next Post or wait for
// the rest.
func (cn *Conn) BindFanout(group []Issuer, deliver Deliver) FanoutBinding {
	conns := make([]*Conn, len(group))
	for i, is := range group {
		conns[i] = is.(*Conn)
		conns[i].c.readForGood()
	}
	return &liveFan{deliver: deliver, conns: conns, ring: make([]bool, len(conns)), wake: make(chan struct{}, 1)}
}

type liveFan struct {
	deliver Deliver
	pending bool // a wait blocks until deliver reports it satisfied
	conns   []*Conn
	ring    []bool // connections posted to since the last doorbell

	mu    sync.Mutex // guards inbox: socket goroutines append, the owner drains
	inbox []fanDone
	spare []fanDone // the inbox collect drained, reused
	wake  chan struct{}
}

// fanDone is a chain handed back: its entry, not yet recycled, holds its
// results, round and slot.
type fanDone struct {
	cn  *Conn
	e   *Entry[liveWait]
	err error
}

func (b *liveFan) Send(i int, ops []wire.Op, round uint64, slot int) {
	b.collect()
	if _, err := b.conns[i].enqueue(ops, liveWait{fan: b, round: round, slot: slot}); err != nil {
		b.deliver(round, slot, nil, err)
	}
	b.ring[i] = true
}

func (b *liveFan) Await(pending bool) {
	for i, r := range b.ring {
		if r {
			b.conns[i].c.fl.kick()
			b.ring[i] = false
		}
	}
	b.pending = pending
	for b.collect(); b.pending; b.collect() {
		<-b.wake
	}
}

// push hands a chain to the owner; socket goroutines and a dying socket's
// sweep call it, and it never blocks.
func (b *liveFan) push(cn *Conn, e *Entry[liveWait], err error) {
	b.mu.Lock()
	b.inbox = append(b.inbox, fanDone{cn, e, err})
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// collect delivers every chain handed back so far and recycles its entry.
func (b *liveFan) collect() {
	b.mu.Lock()
	b.inbox, b.spare = b.spare[:0], b.inbox
	b.mu.Unlock()
	for _, d := range b.spare {
		if b.deliver(d.e.X.round, d.e.X.slot, d.e.X.results, d.err) {
			b.pending = false
		}
		d.cn.mu.Lock()
		d.cn.win.Recycle(d.e)
		d.cn.mu.Unlock()
	}
	clear(b.spare)
}

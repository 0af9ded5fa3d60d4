package transport

import "prism/internal/wire"

// Window is the transport-agnostic half of a PRISM connection's client
// side: the pooled epoch-stamped request records, the connection-owned
// op scratch handed out by Ops, and the strict send window that queues
// requests locally until a slot frees (flow control, as real RC queue
// pairs bound outstanding work requests). It was extracted verbatim
// from the simulated client so the sim transport stays byte-identical;
// the live stream transports reuse it unchanged.
//
// The type parameter X is per-transport completion state carried on
// each pooled entry: the sim client stores who the response goes to and a
// retransmit timer, the live client a channel waiter and a result-copy
// arena. A Window is single-owner — the sim binds one per connection,
// driven by its cluster's one engine, the live client guards each with
// its connection mutex.
type Window[X any] struct {
	// Depth is the send window: request N is only on the wire when
	// N-Depth has been acknowledged. The sim transport sets it to the
	// server's replay-ring depth so (a) the replay ring always covers
	// every in-flight request and (b) per-connection resources indexed
	// by seq mod window (temp-buffer slots) are never shared by two live
	// requests; the stream transports keep the same invariant for the
	// shared temp buffer.
	depth uint64
	// transmit puts one entry on the wire. Called from Drain with the
	// entry already in pending; the sim hook also arms the retransmit
	// timer on lossy networks.
	transmit func(*Entry[X])

	connID uint64
	seq    uint64

	pending map[uint64]*Entry[X]
	// queue holds requests awaiting a send-window slot. qhead is the pop
	// cursor: entries before it are drained, and the slice rewinds to
	// its full capacity once empty, so the steady state appends into
	// retained storage.
	queue []*Entry[X]
	qhead int

	// free pools request entries: once a request's response arrives it
	// can be reused for the next issue on this connection. A duplicate
	// of the old request may still be in flight on a lossy network; the
	// epoch bumped on reuse lets the server discard it (see
	// wire.Request). Ops scratch handed out by Ops is recycled with the
	// entry.
	free []*Entry[X]

	// prepared is the entry whose op scratch the last Ops call handed
	// out; the next Prepare on this window claims it.
	prepared *Entry[X]
}

// Entry is one pooled in-flight request record.
type Entry[X any] struct {
	Req *wire.Request
	// X is the transport's completion state (waiter/timer for sim,
	// waiter/result arena for live). It survives recycling, so pooled
	// resources placed in it are reused across requests.
	X X
	// opsOwned marks Req.Ops as window-owned scratch (handed out by
	// Ops): its capacity is retained and its entries zeroed at recycle.
	// Caller-owned slices are dropped instead — they must never be
	// handed back out as scratch.
	opsOwned bool
}

// NewWindow returns a window for connection connID with the given send
// window depth and transmit hook.
func NewWindow[X any](connID, depth uint64, transmit func(*Entry[X])) *Window[X] {
	return &Window[X]{
		depth:    depth,
		transmit: transmit,
		connID:   connID,
		pending:  make(map[uint64]*Entry[X]),
	}
}

// Ops returns an n-op scratch slice owned by the window, zeroed and
// ready to fill. The caller must hand it to the next Prepare on this
// window, which recycles it when the response arrives — the
// zero-allocation alternative to building a fresh []wire.Op per
// request. The slice (including payload/mask fields set into it) must
// not be retained past the response.
func (w *Window[X]) Ops(n int) []wire.Op {
	e := w.prepared
	if e == nil {
		if m := len(w.free); m > 0 {
			e = w.free[m-1]
			w.free[m-1] = nil
			w.free = w.free[:m-1]
		} else {
			e = &Entry[X]{Req: &wire.Request{}}
		}
		w.prepared = e
	}
	ops := e.Req.Ops
	if !e.opsOwned || cap(ops) < n {
		ops = make([]wire.Op, n)
		e.opsOwned = true
	} else {
		ops = ops[:n]
		for i := range ops {
			ops[i] = wire.Op{}
		}
	}
	e.Req.Ops = ops
	return ops
}

// Prepare claims an entry for ops and stamps its header: the prepared
// entry if ops is the scratch the last Ops call handed out, else a
// pooled entry, else a fresh one. Reused entries bump the request epoch
// to invalidate in-flight duplicates of the old incarnation. The caller
// sets up its completion state in the returned entry's X, then hands
// the entry to Enqueue.
func (w *Window[X]) Prepare(ops []wire.Op) *Entry[X] {
	var e *Entry[X]
	if p := w.prepared; p != nil && len(p.Req.Ops) > 0 && &ops[0] == &p.Req.Ops[0] {
		// The caller filled the scratch handed out by Ops.
		e = p
		w.prepared = nil
		e.Req.Conn, e.Req.Seq, e.Req.Ops = w.connID, w.seq, ops
		e.Req.Epoch++
	} else if n := len(w.free); n > 0 {
		e = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		e.Req.Conn, e.Req.Seq, e.Req.Ops = w.connID, w.seq, ops
		e.Req.Epoch++
		e.opsOwned = false
	} else {
		e = &Entry[X]{Req: &wire.Request{Conn: w.connID, Seq: w.seq, Ops: ops}}
	}
	w.seq++
	return e
}

// Enqueue appends a prepared entry to the send queue and drains.
func (w *Window[X]) Enqueue(e *Entry[X]) {
	w.queue = append(w.queue, e)
	w.Drain()
}

// Drain transmits queued requests while the window allows. The window
// is strict on the sequence range — see Window.depth.
func (w *Window[X]) Drain() {
	for w.qhead < len(w.queue) {
		e := w.queue[w.qhead]
		if len(w.pending) > 0 {
			min := ^uint64(0)
			for s := range w.pending {
				if s < min {
					min = s
				}
			}
			if e.Req.Seq >= min+w.depth {
				return
			}
		}
		w.queue[w.qhead] = nil
		w.qhead++
		w.pending[e.Req.Seq] = e
		w.transmit(e)
	}
	// Drained: rewind so future appends reuse the retained storage.
	w.queue = w.queue[:0]
	w.qhead = 0
}

// Take removes and returns the pending entry for seq. A miss means a
// duplicate response (original + replayed retransmission) and returns
// nil.
func (w *Window[X]) Take(seq uint64) *Entry[X] {
	e, ok := w.pending[seq]
	if !ok {
		return nil
	}
	delete(w.pending, seq)
	return e
}

// Recycle returns a completed entry to the pool for the next issue on
// this window. Any in-flight duplicate is invalidated by the epoch bump
// on reuse. Window-owned op scratch keeps its capacity with the entries
// zeroed (dropping payload refs); caller-owned slices are dropped
// entirely.
func (w *Window[X]) Recycle(e *Entry[X]) {
	if e.opsOwned {
		ops := e.Req.Ops
		for i := range ops {
			ops[i] = wire.Op{}
		}
		e.Req.Ops = ops[:0]
	} else {
		e.Req.Ops = nil
	}
	w.free = append(w.free, e)
}

// InFlight returns the number of transmitted, unacknowledged requests.
func (w *Window[X]) InFlight() int { return len(w.pending) }

// Pooled returns the number of recycled entries available for reuse.
func (w *Window[X]) Pooled() int { return len(w.free) }

// Drop removes every pending and queued entry, calling visit on each.
// The live client uses it to fail outstanding requests when the socket
// dies; the sim transport never drops.
func (w *Window[X]) Drop(visit func(*Entry[X])) {
	for s, e := range w.pending {
		delete(w.pending, s)
		visit(e)
	}
	for i := w.qhead; i < len(w.queue); i++ {
		e := w.queue[i]
		w.queue[i] = nil
		visit(e)
	}
	w.queue = w.queue[:0]
	w.qhead = 0
}

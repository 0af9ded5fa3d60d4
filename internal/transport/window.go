package transport

import "prism/internal/wire"

// Window is the transport-agnostic half of a PRISM connection's client
// side: the pooled epoch-stamped request records, the connection-owned
// op scratch handed out by Ops, and the strict send window that queues
// requests locally until a slot frees (flow control, as real RC queue
// pairs bound outstanding work requests), shared by the simulated and
// the live transports.
//
// The type parameter X is per-transport completion state carried on
// each pooled entry: the sim client stores who the response goes to and a
// retransmit timer, the live client a channel waiter and a result-copy
// arena. A Window is single-owner — the sim binds one per connection,
// driven by its cluster's one engine, the live client guards each with
// its connection mutex.
type Window[X any] struct {
	// transmit puts one entry on the wire. Called from Drain with the
	// entry already in pending; the sim hook also arms the retransmit
	// timer on lossy networks.
	transmit func(*Entry[X])

	connID uint64
	seq    uint64

	// pending is the send window: request seq lives in slot seq mod
	// len(pending). Requests are queued in seq order, so the queue head
	// goes out exactly when its slot is empty, i.e. once seq-len(pending)
	// is acknowledged. The sim transport sizes it to the server's replay
	// ring, which then covers every in-flight request, and resources
	// indexed by seq mod window (temp-buffer slots) are never shared by
	// two live requests; the stream transports keep the same invariant.
	pending  []*Entry[X]
	inFlight int
	sent     uint64 // one past the newest transmitted seq
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
		transmit: transmit,
		connID:   connID,
		pending:  make([]*Entry[X], depth),
	}
}

// Ops returns an n-op scratch slice owned by the window, zeroed and
// ready to fill. The caller must hand it to the next Prepare on this
// window, which recycles it when the response arrives — the
// zero-allocation alternative to building a fresh []wire.Op per
// request. The slice (including payload/mask fields set into it) must
// not be retained past the response.
func (w *Window[X]) Ops(n int) []wire.Op {
	if w.prepared == nil {
		w.prepared = w.pop()
	}
	e := w.prepared
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
// pooled entry, else a fresh one. The request epoch is bumped to
// invalidate in-flight duplicates of a reused entry's old incarnation.
// The caller sets up its completion state in the returned entry's X,
// then hands the entry to Enqueue.
func (w *Window[X]) Prepare(ops []wire.Op) *Entry[X] {
	e := w.prepared
	if e != nil && len(e.Req.Ops) > 0 && &ops[0] == &e.Req.Ops[0] {
		w.prepared = nil // the caller filled the scratch handed out by Ops
	} else {
		e = w.pop()
		e.opsOwned = false
	}
	e.Req.Conn, e.Req.Seq, e.Req.Ops = w.connID, w.seq, ops
	e.Req.Epoch++
	w.seq++
	return e
}

// pop takes an entry from the pool, or makes one.
func (w *Window[X]) pop() *Entry[X] {
	n := len(w.free)
	if n == 0 {
		return &Entry[X]{Req: &wire.Request{}}
	}
	e := w.free[n-1]
	w.free[n-1] = nil
	w.free = w.free[:n-1]
	return e
}

// Enqueue appends a prepared entry to the send queue and drains.
func (w *Window[X]) Enqueue(e *Entry[X]) {
	w.queue = append(w.queue, e)
	w.Drain()
}

// Drain transmits queued requests while the window allows. The window
// is strict on the sequence range — see Window.pending.
func (w *Window[X]) Drain() {
	for w.qhead < len(w.queue) {
		e := w.queue[w.qhead]
		slot := &w.pending[e.Req.Seq%uint64(len(w.pending))]
		if *slot != nil {
			return
		}
		w.queue[w.qhead] = nil
		w.qhead++
		*slot = e
		w.inFlight++
		w.sent = e.Req.Seq + 1
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
	slot := &w.pending[seq%uint64(len(w.pending))]
	e := *slot
	if e == nil || e.Req.Seq != seq {
		return nil
	}
	*slot = nil
	w.inFlight--
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
func (w *Window[X]) InFlight() int { return w.inFlight }

// Pooled returns the number of recycled entries available for reuse.
func (w *Window[X]) Pooled() int { return len(w.free) }

// Drop removes every pending and queued entry, calling visit on each:
// the pending ones oldest first, then the queue. The live client uses it
// to fail outstanding requests when the socket dies; the sim transport
// never drops.
func (w *Window[X]) Drop(visit func(*Entry[X])) {
	for i := range w.pending {
		slot := &w.pending[(w.sent+uint64(i))%uint64(len(w.pending))]
		if e := *slot; e != nil {
			*slot = nil
			visit(e)
		}
	}
	w.inFlight = 0
	for i := w.qhead; i < len(w.queue); i++ {
		e := w.queue[i]
		w.queue[i] = nil
		visit(e)
	}
	w.queue = w.queue[:0]
	w.qhead = 0
}

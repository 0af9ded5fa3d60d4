package transport_test

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"prism/internal/transport"
	"prism/internal/wire"
)

// refWindow is the send window's reference model: the in-flight requests
// in a map, and the queue head goes out while its seq is below the
// smallest in-flight seq plus the depth.
type refWindow struct {
	depth   uint64
	pending map[uint64]*transport.Entry[uint64]
	queue   []*transport.Entry[uint64]
	sent    []uint64
}

func (m *refWindow) drain() {
	for len(m.queue) > 0 {
		e := m.queue[0]
		if len(m.pending) > 0 && e.Req.Seq >= slices.Min(slices.Collect(maps.Keys(m.pending)))+m.depth {
			return
		}
		m.queue = m.queue[1:]
		m.pending[e.Req.Seq] = e
		m.sent = append(m.sent, e.Req.Seq)
	}
}

func (m *refWindow) take(seq uint64) *transport.Entry[uint64] {
	e := m.pending[seq]
	delete(m.pending, seq)
	return e
}

// TestWindowMatchesReference drives a window and its reference model
// through one seeded random schedule per depth and seed: issues (window
// scratch and caller-owned ops), Takes of pending, duplicate, stale and
// unissued seqs, Recycles (some held back, as a fan-out's owner does) and
// Drops. Transmit order, every Take and InFlight must agree, and Drop must
// visit each entry once: pending ones by seq, then the queue.
func TestWindowMatchesReference(t *testing.T) {
	for _, depth := range []uint64{1, 8, 64} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(depth)))
			var sent []uint64
			w := transport.NewWindow[uint64](7, depth, func(e *transport.Entry[uint64]) {
				if e.X != e.Req.Seq {
					t.Fatalf("depth %d seed %d: transmitted entry of seq %d carries %d", depth, seed, e.Req.Seq, e.X)
				}
				sent = append(sent, e.Req.Seq)
			})
			m := &refWindow{depth: depth, pending: map[uint64]*transport.Entry[uint64]{}}
			var next uint64
			var taken []uint64                  // seqs already answered
			var held []*transport.Entry[uint64] // taken, not yet recycled
			check := func(step int, what string) {
				t.Helper()
				if !slices.Equal(sent, m.sent) {
					t.Fatalf("depth %d seed %d step %d (%s): transmitted %v, reference %v", depth, seed, step, what, sent, m.sent)
				}
				if w.InFlight() != len(m.pending) {
					t.Fatalf("depth %d seed %d step %d (%s): InFlight %d, reference %d", depth, seed, step, what, w.InFlight(), len(m.pending))
				}
			}
			take := func(step int, seq uint64, what string) {
				t.Helper()
				got, want := w.Take(seq), m.take(seq)
				if got != want {
					t.Fatalf("depth %d seed %d step %d: Take(%d) of a %s seq = %p, reference %p", depth, seed, step, seq, what, got, want)
				}
				if got != nil {
					taken = append(taken, seq)
					if rng.Intn(4) == 0 {
						held = append(held, got)
					} else {
						w.Recycle(got)
					}
				}
				w.Drain()
				m.drain()
				check(step, "take "+what)
			}
			for step := 0; step < 3000; step++ {
				switch r := rng.Intn(100); {
				case r < 45: // issue
					n := 1 + rng.Intn(4)
					var ops []wire.Op
					if rng.Intn(2) == 0 {
						ops = w.Ops(n)
					} else {
						ops = make([]wire.Op, n)
					}
					e := w.Prepare(ops)
					if e.Req.Seq != next || e.Req.Conn != 7 {
						t.Fatalf("depth %d seed %d step %d: prepared conn %d seq %d, want 7 %d", depth, seed, step, e.Req.Conn, e.Req.Seq, next)
					}
					next++
					e.X = e.Req.Seq
					w.Enqueue(e)
					m.queue = append(m.queue, e)
					m.drain()
					check(step, "issue")
				case r < 80: // answer an in-flight request
					if len(m.pending) == 0 {
						continue
					}
					seqs := slices.Sorted(maps.Keys(m.pending))
					take(step, seqs[rng.Intn(len(seqs))], "pending")
				case r < 87: // a duplicate answer
					if len(taken) > 0 {
						take(step, taken[rng.Intn(len(taken))], "duplicate")
					}
				case r < 94: // a seq sharing a pending request's slot, or never issued
					seq := next + uint64(rng.Intn(3))
					if len(m.pending) > 0 && rng.Intn(2) == 0 {
						seqs := slices.Sorted(maps.Keys(m.pending))
						s := seqs[rng.Intn(len(seqs))]
						if seq = s + depth*uint64(1+rng.Intn(2)); rng.Intn(2) == 0 && s >= depth {
							seq = s - depth
						}
					}
					take(step, seq, "stale")
				case r < 98: // recycle what a fan-out's owner held back
					for _, e := range held {
						w.Recycle(e)
					}
					held = held[:0]
				default: // the socket dies
					want := slices.Sorted(maps.Keys(m.pending))
					for _, e := range m.queue {
						want = append(want, e.Req.Seq)
					}
					var got []uint64
					w.Drop(func(e *transport.Entry[uint64]) { got = append(got, e.Req.Seq) })
					if !slices.Equal(got, want) {
						t.Fatalf("depth %d seed %d step %d: Drop visited %v, want %v", depth, seed, step, got, want)
					}
					clear(m.pending)
					m.queue = nil
					check(step, "drop")
				}
			}
		}
	}
}

// BenchmarkWindowTrain is one 16-chain train on a live-depth window: 16
// issues into window scratch, then 16 answers, each taken and recycled.
//
//	go test -run '^$' -bench 'WindowTrain|Quiescer' ./internal/transport ./internal/alloc
func BenchmarkWindowTrain(b *testing.B) {
	const train = 16
	w := transport.NewWindow[struct{}](1, 64, func(*transport.Entry[struct{}]) {})
	var seqs [train]uint64
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i := range seqs {
			ops := w.Ops(2)
			ops[0].Len, ops[1].Len = 8, 64
			e := w.Prepare(ops)
			seqs[i] = e.Req.Seq
			w.Enqueue(e)
		}
		for _, seq := range seqs {
			w.Recycle(w.Take(seq))
			w.Drain()
		}
	}
}

package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventChurn measures the schedule→fire cycle that dominates the
// engine's hot path. With the event free list this runs allocation-free
// once the pool is primed.
func BenchmarkEventChurn(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var fire func()
	fire = func() {
		n++
		if n < b.N {
			e.Schedule(10, fire)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(10, fire)
	e.Run()
}

// BenchmarkTimerStartStop measures the cancel path (schedule then Stop),
// the pattern every RPC timeout takes.
func BenchmarkTimerStartStop(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.Schedule(100, fn)
		t.Stop()
	}
}

// BenchmarkWheelCollectCascaded fires n events scheduled for one instant
// far enough ahead to be filed in a coarse slot, so the batch cascades on
// its way down and collect must restore its seq order: linear in n, where
// an insertion sort over the cascade-reversed list was quadratic (seconds
// per batch at n=65536).
func BenchmarkWheelCollectCascaded(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := NewEngine(1)
			fn := func() {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				at := e.Now().Add(5000)
				for j := 0; j < n; j++ {
					e.At(at, fn)
				}
				e.Run()
			}
		})
	}
}

// BenchmarkProcSwitch measures what resuming and parking a process costs
// the host. yield: one process in a Yield loop, so a round is a schedule,
// a fire and two switches (event -> body -> event). future: two processes
// handing a pair of futures back and forth inside one event, so a round is
// two switches (Complete -> waiter, waiter's Wait -> completer) and no
// scheduler work at all.
func BenchmarkProcSwitch(b *testing.B) {
	b.Run("yield", func(b *testing.B) {
		e := NewEngine(1)
		e.Go("yielder", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Yield()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
	b.Run("future", func(b *testing.B) {
		e := NewEngine(1)
		ping, pong := NewSignal(e), NewSignal(e)
		e.Go("waiter", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				ping.Wait(p)
				ping.Reset()
				Fire(pong)
			}
		})
		e.Go("completer", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				Fire(ping) // runs the waiter until it parks on ping again
				pong.Wait(p)
				pong.Reset()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
		if e.LiveProcs() != 0 {
			b.Fatalf("%d processes still parked", e.LiveProcs())
		}
	})
}

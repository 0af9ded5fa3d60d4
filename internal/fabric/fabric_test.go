package fabric

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"prism/internal/model"
	"prism/internal/sim"
)

func testParams() model.Params {
	p := model.Default()
	p.Network = model.Rack
	return p
}

func TestPointToPointLatency(t *testing.T) {
	e := sim.NewEngine(1)
	p := testParams()
	net := New(e, p)
	a, b := net.NewNode("a"), net.NewNode("b")
	a.SetHandler(func(Message) {})
	var arrived sim.Time
	b.SetHandler(func(m Message) { arrived = e.Now() })
	size := 512
	net.Send(Message{From: a, To: b, Size: size})
	e.Run()
	want := sim.Time(2*p.SerializationDelay(size) + p.Network.OneWay)
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
}

func TestFIFOBetweenPair(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e, testParams())
	a, b := net.NewNode("a"), net.NewNode("b")
	var got []int
	b.SetHandler(func(m Message) { got = append(got, m.Payload.(int)) })
	for i := 0; i < 10; i++ {
		net.Send(Message{From: a, To: b, Size: 100 + i, Payload: i})
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order delivery: %v", got)
		}
	}
}

func TestReceiverPortContention(t *testing.T) {
	// Two senders saturating one receiver: total delivery time is bounded
	// below by the receiver's serialization of all bytes.
	e := sim.NewEngine(1)
	p := testParams()
	net := New(e, p)
	s1, s2, dst := net.NewNode("s1"), net.NewNode("s2"), net.NewNode("dst")
	n := 0
	dst.SetHandler(func(Message) { n++ })
	const msgs, size = 50, 4096
	for i := 0; i < msgs; i++ {
		net.Send(Message{From: s1, To: dst, Size: size})
		net.Send(Message{From: s2, To: dst, Size: size})
	}
	e.Run()
	if n != 2*msgs {
		t.Fatalf("delivered %d, want %d", n, 2*msgs)
	}
	minTime := sim.Time(time.Duration(2*msgs) * p.SerializationDelay(size))
	if got := e.Now(); got < minTime {
		t.Fatalf("finished at %v, faster than receiver line rate allows (%v)", got, minTime)
	}
}

func TestLoopback(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e, testParams())
	a := net.NewNode("a")
	done := false
	a.SetHandler(func(m Message) { done = true })
	net.Send(Message{From: a, To: a, Size: 64})
	e.Run()
	if !done {
		t.Fatal("loopback not delivered")
	}
	if got := e.Now(); got != 0 {
		t.Fatalf("loopback took %v", got)
	}
	// Same-node traffic must be visible to the byte counters.
	if a.BytesSent != 64 || a.MsgsSent != 1 {
		t.Fatalf("loopback sender counters: %d bytes, %d msgs", a.BytesSent, a.MsgsSent)
	}
	if a.BytesReceived != 64 || a.MsgsReceived != 1 {
		t.Fatalf("loopback receiver counters: %d bytes, %d msgs", a.BytesReceived, a.MsgsReceived)
	}
}

func TestLossDropsMessages(t *testing.T) {
	e := sim.NewEngine(3)
	p := testParams()
	p.LossRate = 0.5
	net := New(e, p)
	a, b := net.NewNode("a"), net.NewNode("b")
	got := 0
	b.SetHandler(func(Message) { got++ })
	const sent = 1000
	for i := 0; i < sent; i++ {
		net.Send(Message{From: a, To: b, Size: 64})
	}
	e.Run()
	if got == 0 || got == sent {
		t.Fatalf("loss rate 0.5 delivered %d/%d", got, sent)
	}
	if b.MsgsDropped+b.MsgsReceived != sent {
		t.Fatalf("dropped %d + received %d != sent %d", b.MsgsDropped, b.MsgsReceived, sent)
	}
	// Crude binomial check: expect 500 ± 5 sigma (~79).
	if got < 421 || got > 579 {
		t.Fatalf("delivered %d, far from expected 500", got)
	}
}

func TestCounters(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e, testParams())
	a, b := net.NewNode("a"), net.NewNode("b")
	b.SetHandler(func(Message) {})
	net.Send(Message{From: a, To: b, Size: 123})
	e.Run()
	if a.BytesSent != 123 || a.MsgsSent != 1 {
		t.Fatalf("sender counters: %d bytes, %d msgs", a.BytesSent, a.MsgsSent)
	}
	if b.BytesReceived != 123 || b.MsgsReceived != 1 {
		t.Fatalf("receiver counters: %d bytes, %d msgs", b.BytesReceived, b.MsgsReceived)
	}
}

func TestMissingHandlerPanics(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e, testParams())
	a, b := net.NewNode("a"), net.NewNode("b")
	net.Send(Message{From: a, To: b, Size: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("delivery without handler did not panic")
		}
	}()
	e.Run()
}

// Property: delivery between a fixed pair preserves send order for any
// mix of message sizes (FIFO ports), with loss disabled.
func TestQuickFIFOAnySizes(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		e := sim.NewEngine(1)
		net := New(e, testParams())
		a, b := net.NewNode("a"), net.NewNode("b")
		var got []int
		b.SetHandler(func(m Message) { got = append(got, m.Payload.(int)) })
		for i, sz := range sizes {
			net.Send(Message{From: a, To: b, Size: int(sz), Payload: i})
		}
		e.Run()
		if len(got) != len(sizes) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(33))}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	// Total delivery time of a burst equals the serialization sum at the
	// bottleneck port plus one propagation delay.
	e := sim.NewEngine(1)
	p := testParams()
	net := New(e, p)
	a, b := net.NewNode("a"), net.NewNode("b")
	b.SetHandler(func(Message) {})
	const n, size = 100, 1024
	for i := 0; i < n; i++ {
		net.Send(Message{From: a, To: b, Size: size})
	}
	e.Run()
	ser := p.SerializationDelay(size)
	want := sim.Time(time.Duration(n)*ser + p.Network.OneWay + ser)
	if got := e.Now(); got != want {
		t.Fatalf("burst finished at %v, want %v", got, want)
	}
}

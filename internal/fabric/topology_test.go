package fabric

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"prism/internal/sim"
)

// TestCrossRackPropagation: a message crossing racks pays the configured
// extra one-way latency; same-rack traffic is unaffected.
func TestCrossRackPropagation(t *testing.T) {
	p := testParams()
	p.CrossRackExtra = 500 * time.Nanosecond
	e := sim.NewEngine(1)
	net := New(e, p)
	a, b := net.NewNode("a"), net.NewNode("b")
	d, c := net.NewNode("d"), net.NewNode("c")
	b.SetRack(1)
	if a.Rack() != 0 || b.Rack() != 1 {
		t.Fatalf("racks: a=%d b=%d", a.Rack(), b.Rack())
	}
	var atB, atC sim.Time
	b.SetHandler(func(Message) { atB = b.Domain().Now() })
	c.SetHandler(func(Message) { atC = c.Domain().Now() })
	size := 512
	net.Send(Message{From: a, To: b, Size: size})
	net.Send(Message{From: d, To: c, Size: size})
	e.Run()
	flat := sim.Time(2*p.SerializationDelay(size) + p.Network.OneWay)
	if atC != flat {
		t.Fatalf("same-rack arrival at %v, want %v", atC, flat)
	}
	if want := flat.Add(sim.Duration(p.CrossRackExtra)); atB != want {
		t.Fatalf("cross-rack arrival at %v, want %v", atB, want)
	}
}

// TestGroupedPairLatency: co-locating two nodes in one affinity group
// (intra-domain bypass path) must not change message timing.
func TestGroupedPairLatency(t *testing.T) {
	p := testParams()
	e := sim.NewEngine(1)
	net := New(e, p)
	a, b := net.NewNodeInGroup("a", 7), net.NewNodeInGroup("b", 7)
	if a.Domain() != b.Domain() {
		t.Fatal("grouped nodes did not share a domain")
	}
	var arrived sim.Time
	b.SetHandler(func(Message) { arrived = b.Domain().Now() })
	size := 512
	net.Send(Message{From: a, To: b, Size: size})
	e.Run()
	if want := sim.Time(2*p.SerializationDelay(size) + p.Network.OneWay); arrived != want {
		t.Fatalf("grouped-pair arrival at %v, want %v", arrived, want)
	}
}

// stormTrace runs the cross-domain forwarding storm of
// TestCrossDomainDeterminism, but with a deterministic (node, hop)
// forwarding choice instead of the domain RNG (which is legitimately
// shared under grouping), nodes placed into affinity groups of the
// given size, and racks split down the middle when crossRack is set.
func stormTrace(t *testing.T, groupSize, workers int, crossRack time.Duration) string {
	trace, _ := stormTraceStats(t, groupSize, workers, crossRack, false)
	return trace
}

// dense adds a barrier hook that re-requests itself, so the fabric's flush
// runs at every crossing: the reference for sweep elision.
func stormTraceStats(t *testing.T, groupSize, workers int, crossRack time.Duration, dense bool) (string, sim.WorldStats) {
	t.Helper()
	p := testParams()
	p.CrossRackExtra = crossRack
	e := sim.NewEngine(7)
	if dense {
		e.World().OnBarrier(e.World().RequestBarrier)
	}
	net := New(e, p)
	const N = 6
	nodes := make([]*Node, N)
	traces := make([][]string, N)
	for i := 0; i < N; i++ {
		if groupSize > 1 {
			nodes[i] = net.NewNodeInGroup(string(rune('a'+i)), i/groupSize)
		} else {
			nodes[i] = net.NewNode(string(rune('a' + i)))
		}
		if crossRack > 0 && i >= N/2 {
			nodes[i].SetRack(1)
		}
	}
	for i := 0; i < N; i++ {
		i := i
		self := nodes[i]
		self.SetHandler(func(m Message) {
			hops := m.Payload.(int)
			traces[i] = append(traces[i],
				fmt.Sprintf("%s->%s@%d hops=%d", m.From.Name(), self.Name(), self.Domain().Now(), hops))
			if hops > 0 {
				next := nodes[(i*31+hops*17+m.Size)%N]
				if next != self {
					net.Send(Message{From: self, To: next, Size: 64 + hops, Payload: hops - 1})
				}
			}
		})
	}
	for i := 0; i < N; i++ {
		i := i
		src := nodes[i]
		for j := 0; j < N; j++ {
			if j == i {
				continue
			}
			dst := nodes[j]
			src.Domain().Schedule(sim.Duration(i+j)*time.Microsecond, func() {
				net.Send(Message{From: src, To: dst, Size: 128, Payload: 4})
			})
		}
	}
	e.World().SetWorkers(workers)
	e.Run()
	var b strings.Builder
	for i, tr := range traces {
		fmt.Fprintf(&b, "node %s: sent=%d/%dB recv=%d/%dB dropped=%d\n",
			nodes[i].Name(), nodes[i].MsgsSent, nodes[i].BytesSent,
			nodes[i].MsgsReceived, nodes[i].BytesReceived, nodes[i].MsgsDropped)
		for _, line := range tr {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), e.World().Stats()
}

// TestSparseBarrierStormDeterminism: the forwarding storm produces the
// same trace as a run that sweeps at every crossing, at every grouping
// and worker count — the fabric raises the barrier-request flag whenever
// an outbox has work, so no flush is ever missed — while the quiet
// stretch after the storm dies down is skipped (BarrierSkips > 0 once the
// world has windows with nothing to merge).
func TestSparseBarrierStormDeterminism(t *testing.T) {
	base, dense := stormTraceStats(t, 1, 1, 0, true)
	if base == "" || dense.CrossDeliveries == 0 {
		t.Fatal("storm did not run")
	}
	if dense.BarrierSkips != 0 {
		t.Fatalf("dense reference skipped %d sweeps", dense.BarrierSkips)
	}
	for _, g := range []int{1, 2, 6} {
		for _, w := range []int{1, 4} {
			got, st := stormTraceStats(t, g, w, 0, false)
			if got != base {
				t.Fatalf("groupSize=%d workers=%d trace differs from dense serial:\n--- base ---\n%s--- got ---\n%s",
					g, w, base, got)
			}
			if g == 1 && st.BarrierSkips == 0 {
				t.Fatalf("workers=%d: ungrouped storm elided no sweeps", w)
			}
			if st.Barriers == 0 {
				t.Fatalf("groupSize=%d workers=%d: no hook sweeps ran", g, w)
			}
		}
	}
}

// TestGroupedStormDeterminism: the storm's per-node delivery traces must
// be identical at every affinity grouping and every worker count — the
// (arrival time, source node, send sequence) order decides delivery, the
// domain layout never does.
func TestGroupedStormDeterminism(t *testing.T) {
	base := stormTrace(t, 1, 1, 0)
	if base == "" || !strings.Contains(base, "hops=0") {
		t.Fatalf("storm did not cascade:\n%s", base)
	}
	for _, g := range []int{2, 3, 6} {
		for _, w := range []int{1, 4} {
			if got := stormTrace(t, g, w, 0); got != base {
				t.Fatalf("groupSize=%d workers=%d trace differs from ungrouped serial:\n--- base ---\n%s--- got ---\n%s",
					g, w, base, got)
			}
		}
	}
}

// TestGroupedStormDeterminismCrossRack: same invariance with a rack
// split and nonzero cross-rack latency — the per-pair lookahead matrix
// is asymmetric, but regrouping still cannot move any delivery.
func TestGroupedStormDeterminismCrossRack(t *testing.T) {
	const extra = 700 * time.Nanosecond
	base := stormTrace(t, 1, 1, extra)
	if base == "" {
		t.Fatal("storm did not run")
	}
	if base == stormTrace(t, 1, 1, 0) {
		t.Fatal("cross-rack latency had no effect on the storm")
	}
	for _, g := range []int{3, 6} {
		for _, w := range []int{1, 4} {
			if got := stormTrace(t, g, w, extra); got != base {
				t.Fatalf("groupSize=%d workers=%d cross-rack trace differs:\n--- base ---\n%s--- got ---\n%s",
					g, w, base, got)
			}
		}
	}
}

// TestGroupedLossDeterminism: loss draws come from per-node streams, so
// the set of dropped messages is identical whether or not the endpoints
// share a domain.
func TestGroupedLossDeterminism(t *testing.T) {
	run := func(group bool) (int, int64) {
		e := sim.NewEngine(3)
		p := testParams()
		p.LossRate = 0.5
		net := New(e, p)
		var a, b *Node
		if group {
			a, b = net.NewNodeInGroup("a", 0), net.NewNodeInGroup("b", 0)
		} else {
			a, b = net.NewNode("a"), net.NewNode("b")
		}
		got := 0
		b.SetHandler(func(Message) { got++ })
		for i := 0; i < 1000; i++ {
			net.Send(Message{From: a, To: b, Size: 64})
		}
		e.Run()
		return got, b.MsgsDropped
	}
	split, splitDropped := run(false)
	grouped, groupedDropped := run(true)
	if split != grouped || splitDropped != groupedDropped {
		t.Fatalf("loss outcome depends on grouping: split %d/%d dropped, grouped %d/%d",
			split, splitDropped, grouped, groupedDropped)
	}
	if split == 0 || split == 1000 {
		t.Fatalf("implausible delivery count %d", split)
	}
}

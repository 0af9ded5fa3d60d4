package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"prism/internal/sim"
)

// stormTrace runs a forwarding storm: every node seeds traffic to every
// other, and receivers forward for several hops to a peer that the
// (node, hop) pair determines, or, with random set, that the engine's RNG
// draws. It returns every node's counters and delivery log.
func stormTrace(t *testing.T, random bool) string {
	t.Helper()
	e := sim.NewEngine(7)
	net := New(e, testParams())
	const N = 6
	nodes := make([]*Node, N)
	traces := make([][]string, N)
	for i := 0; i < N; i++ {
		nodes[i] = net.NewNode(string(rune('a' + i)))
	}
	for i := 0; i < N; i++ {
		i := i
		self := nodes[i]
		self.SetHandler(func(m Message) {
			hops := m.Payload.(int)
			traces[i] = append(traces[i],
				fmt.Sprintf("%s->%s@%d hops=%d", m.From.Name(), self.Name(), e.Now(), hops))
			if hops > 0 {
				next := nodes[(i*31+hops*17+m.Size)%N]
				if random {
					next = nodes[e.Rand().Intn(N)]
				}
				if next != self {
					net.Send(Message{From: self, To: next, Size: 64 + hops, Payload: hops - 1})
				}
			}
		})
	}
	for i := 0; i < N; i++ {
		src := nodes[i]
		for j := 0; j < N; j++ {
			if j == i {
				continue
			}
			dst := nodes[j]
			e.Schedule(sim.Duration(i+j)*time.Microsecond, func() {
				net.Send(Message{From: src, To: dst, Size: 128, Payload: 4})
			})
		}
	}
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
	return b.String()
}

// stormSHA256 is the recorded storm trace digest.
const stormSHA256 = "38d45d65321a68bae40aaaa44c36a5601c6b65d6b4124ac3520fa5b52c6c64e2"

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestRandomStormRepeats: a storm whose receivers draw their next hop from
// the engine's RNG cascades and repeats byte for byte — the draws follow
// the delivery order.
func TestRandomStormRepeats(t *testing.T) {
	base := stormTrace(t, true)
	if !strings.Contains(base, "hops=0") {
		t.Fatalf("storm did not cascade:\n%s", base)
	}
	if again := stormTrace(t, true); again != base {
		t.Fatalf("storm differs between identical runs:\n--- first ---\n%s--- second ---\n%s", base, again)
	}
}

// TestStormTraceGolden: the per-node delivery traces of a storm hash to
// the recorded value, on every run: the (arrival time, source node, send
// sequence) order decides delivery.
func TestStormTraceGolden(t *testing.T) {
	base := stormTrace(t, false)
	if !strings.Contains(base, "hops=0") {
		t.Fatalf("storm did not cascade:\n%s", base)
	}
	if got := sha256Hex(base); got != stormSHA256 {
		t.Fatalf("storm trace hash %s, want the recorded %s:\n%s", got, stormSHA256, base)
	}
	if again := stormTrace(t, false); again != base {
		t.Fatalf("storm differs between identical runs:\n--- first ---\n%s--- second ---\n%s", base, again)
	}
}

// TestSameInstantArrivalsDrainBySource: messages that reach one node at
// the same instant are handed to its rx port in (source node, send
// sequence) order, whatever order their sends were scheduled in.
func TestSameInstantArrivalsDrainBySource(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e, testParams())
	a, b, c, dst := net.NewNode("a"), net.NewNode("b"), net.NewNode("c"), net.NewNode("dst")
	var got []string
	dst.SetHandler(func(m Message) { got = append(got, fmt.Sprintf("%s%d", m.From.Name(), m.Payload)) })
	// Equal sizes from idle ports at one instant arrive together; c and b
	// send first, and c's second message queues behind its first.
	for _, src := range []*Node{c, b, a} {
		net.Send(Message{From: src, To: dst, Size: 256, Payload: 0})
	}
	net.Send(Message{From: c, To: dst, Size: 256, Payload: 1})
	e.Run()
	if want := "[a0 b0 c0 c1]"; fmt.Sprint(got) != want {
		t.Fatalf("delivery order %v, want %s", got, want)
	}
}

// TestLossOutcomeGolden: loss draws come from per-node streams, so the
// dropped set is the recorded one (506 delivered, 494 dropped), on every
// run.
func TestLossOutcomeGolden(t *testing.T) {
	run := func() (int, int64) {
		e := sim.NewEngine(3)
		p := testParams()
		p.LossRate = 0.5
		net := New(e, p)
		a, b := net.NewNode("a"), net.NewNode("b")
		got := 0
		b.SetHandler(func(Message) { got++ })
		for i := 0; i < 1000; i++ {
			net.Send(Message{From: a, To: b, Size: 64})
		}
		e.Run()
		return got, b.MsgsDropped
	}
	first, firstDropped := run()
	if first != 506 || firstDropped != 494 {
		t.Fatalf("loss outcome %d delivered/%d dropped, want the recorded 506/494", first, firstDropped)
	}
	if second, secondDropped := run(); first != second || firstDropped != secondDropped {
		t.Fatalf("loss outcome differs between runs: %d/%d dropped, then %d/%d",
			first, firstDropped, second, secondDropped)
	}
}

// Package fabric models the datacenter network connecting NICs: per-port
// serialization at line rate, switch propagation latency, and optional
// message loss. Reliability (retransmission, duplicate suppression) is the
// NIC transport's job (package rdma), mirroring how RoCE NICs layer a
// reliable connection over a lossy Ethernet fabric.
//
// Messages carry decoded payloads plus an explicit wire size; the size —
// computed from the real encodings in package wire — drives bandwidth
// accounting, so the fabric does not pay for encoding on the hot path. The
// rdma package's tests exercise the full encode/decode path separately.
//
// Every node runs on the network's one engine (see package sim): the
// node's timers, port resources and handler all execute there. A send
// schedules its arrival at the destination's switch port directly. All
// non-loopback arrivals at one (node, instant) are staged into a per-node
// inbox and drained by a single tail-of-instant event that submits them
// to the rx port in (source node, send sequence) order, so delivery order
// is decided by who sent what, never by when the arrival events happened
// to be scheduled. Loopback traffic never touches any of this.
package fabric

import (
	"fmt"
	"math/rand"

	"prism/internal/model"
	"prism/internal/sim"
)

// Message is one datagram in flight.
type Message struct {
	From, To *Node
	Size     int // encoded size in bytes, excluding frame overhead
	Payload  any
	// Tag is an opaque sender-chosen stamp carried with the datagram. The
	// rdma transport uses it to epoch-stamp pooled payload objects: a
	// receiver can tell a stale (recycled and reused) payload from the
	// incarnation this datagram actually carried.
	Tag uint32
}

// Handler receives messages delivered to a node.
type Handler func(m Message)

// Node is one machine's NIC port.
type Node struct {
	net     *Network
	name    string
	index   int // creation order; same-instant arrival tie-break
	tx, rx  *sim.Resource
	handler Handler

	// outSeq numbers this node's sends: the second key of the
	// same-instant arrival order.
	outSeq uint64

	// inbox stages this node's same-instant arrivals; drain submits them
	// to the rx port in (source node, send sequence) order at the tail of
	// the instant. drainFn is the bound method, allocated once.
	inbox   []*flight
	drainFn func()

	// lossRng samples message drops. It is per node, so the draw sequence
	// each sender sees depends only on its own sends. Lazily built from
	// the engine seed and the node's creation index; never touched while
	// LossRate is zero.
	lossRng *rand.Rand

	// free recycles the in-flight message carriers delivered to this node.
	free *flight

	// Counters for reporting and tests.
	BytesSent     int64
	BytesReceived int64
	MsgsSent      int64
	MsgsReceived  int64
	MsgsDropped   int64
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// SetHandler installs the delivery callback. It must be set before any
// message arrives.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// Network is a set of nodes joined through one switch profile.
type Network struct {
	e     *sim.Engine
	p     model.Params
	nodes int // nodes created so far: the next node's index
}

// flight carries one message through its destination-side delivery hops
// (switch arrival → inbox staging → rx serialization → handler). The hop
// callbacks are bound to the flight once, when it is first allocated, so
// a recycled flight moves a message end to end without allocating.
type flight struct {
	owner *Node
	m     Message
	ser   sim.Duration
	src   int // source node index — same-instant inbox sort key
	seq   uint64
	next  *flight // free-list link

	stage   func()
	deliver func()
}

// newFlight takes a carrier from the destination node's pool.
func (n *Node) newFlight(m Message, ser sim.Duration) *flight {
	f := n.free
	if f != nil {
		n.free = f.next
		f.next = nil
	} else {
		f = &flight{owner: n}
		f.stage = f.runStage
		f.deliver = f.runDeliver
	}
	f.m = m
	f.ser = ser
	return f
}

func (n *Node) recycleFlight(f *flight) {
	f.m = Message{} // drop payload references
	f.next = n.free
	n.free = f
}

// runStage executes at the arrival instant. It only parks the flight in
// the node's inbox; the actual rx submission happens in runDrain at the
// tail of the instant, once every arrival of the instant has been staged,
// so that submission order is decided by (source node, send sequence)
// rather than by event scheduling order.
func (f *flight) runStage() {
	to := f.owner
	e := to.net.e
	if len(to.inbox) == 0 {
		e.AtTail(e.Now(), to.drainFn)
	}
	to.inbox = append(to.inbox, f)
}

// runDrain submits the instant's staged arrivals to the rx port in
// canonical (source node, send sequence) order.
func (n *Node) runDrain() {
	box := n.inbox
	// Arrivals of one instant are few; insertion sort avoids sort.Slice's
	// closure allocation on a hot path.
	for i := 1; i < len(box); i++ {
		for j := i; j > 0 && flightBefore(box[j], box[j-1]); j-- {
			box[j], box[j-1] = box[j-1], box[j]
		}
	}
	for i, f := range box {
		// Receive-side serialization: the destination port is the
		// contention point when many senders target one server.
		n.rx.Submit(f.ser, f.deliver)
		box[i] = nil
	}
	n.inbox = box[:0]
}

func flightBefore(a, b *flight) bool {
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

func (f *flight) runDeliver() {
	m := f.m
	f.owner.recycleFlight(f) // before the handler, so reentrant sends can reuse it
	f.owner.net.deliver(m)
}

// New returns an empty network on e using p's latency/bandwidth
// parameters.
func New(e *sim.Engine, p model.Params) *Network {
	return &Network{e: e, p: p}
}

// Engine returns the simulation engine every node of the network runs on.
func (n *Network) Engine() *sim.Engine { return n.e }

// Params returns the cost model in effect.
func (n *Network) Params() model.Params { return n.p }

// NewNode adds a machine to the network.
func (n *Network) NewNode(name string) *Node {
	node := &Node{
		net:   n,
		name:  name,
		index: n.nodes,
		tx:    sim.NewResource(n.e),
		rx:    sim.NewResource(n.e),
	}
	node.drainFn = node.runDrain
	n.nodes++
	return node
}

func (n *Node) lossRand() *rand.Rand {
	if n.lossRng == nil {
		n.lossRng = rand.New(rand.NewSource(nodeSeed(n.net.e.Seed(), n.index)))
	}
	return n.lossRng
}

// nodeSeed decorrelates per-node loss streams from each other and from
// the engine's own stream (one SplitMix64 step over a distinct
// increment).
func nodeSeed(seed int64, index int) int64 {
	z := uint64(seed) ^ 0xd3833e804f4c574b + uint64(index)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Send transmits m.Payload from m.From to m.To. Delivery order between a
// pair of nodes follows transmission order (FIFO ports); messages may be
// dropped when the cost model's LossRate is nonzero. Send must be called
// from simulation context (or from setup code between runs).
func (n *Network) Send(m Message) {
	if m.From == nil || m.To == nil {
		panic("fabric: Send with nil endpoint")
	}
	src := m.From
	src.BytesSent += int64(m.Size)
	src.MsgsSent++
	if src == m.To {
		// Loopback: skip the wire, deliver after a negligible delay. The
		// send is still accounted so same-node traffic shows up in byte
		// counters.
		n.e.Schedule(0, src.newFlight(m, 0).deliver)
		return
	}
	// Source-side serialization happens on the sender's port now. Loss is
	// sampled here, from the sender node's own RNG stream.
	ser := n.p.SerializationDelay(m.Size)
	at := src.tx.Submit(ser, nil).Add(n.p.Network.OneWay)
	seq := src.outSeq
	src.outSeq++
	if n.p.LossRate > 0 && src.lossRand().Float64() < n.p.LossRate {
		m.To.MsgsDropped++
		return
	}
	f := m.To.newFlight(m, ser)
	f.src = src.index
	f.seq = seq
	n.e.At(at, f.stage)
}

func (n *Network) deliver(m Message) {
	m.To.BytesReceived += int64(m.Size)
	m.To.MsgsReceived++
	if m.To.handler == nil {
		panic(fmt.Sprintf("fabric: node %q has no handler", m.To.name))
	}
	m.To.handler(m)
}

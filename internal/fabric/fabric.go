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
// Each node lives on an event domain (see package sim): the node's
// timers, port resources, and handler all execute there. By default every
// node gets its own fresh domain; NewNodeInGroup co-locates several nodes
// on one shared domain (affinity groups) so that fleets of tiny client
// machines don't each pay barrier fan-out. The fabric declares a
// per-(src, dst) lookahead edge for every cross-domain node pair — frame
// serialization plus that pair's switch propagation, including any
// cross-rack extra — so far-apart pairs get long scheduling windows.
//
// Cross-domain sends are buffered in per-node outboxes merged at window
// barriers in (arrival time, source node, send sequence) order. Sends
// between distinct nodes that share a domain bypass the outbox and
// schedule delivery directly — they never cross a domain boundary — but
// consume the same send sequence numbers, so the total order is the same
// one an ungrouped run produces. All non-loopback arrivals at one
// (node, instant) are staged into a per-node inbox and drained by a
// single tail-of-instant event that submits them to the rx port in
// (source node, send sequence) order, which makes delivery order
// independent of how nodes are grouped into domains. Loopback traffic
// stays inside the sender's domain and never touches any of this.
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
	dom     *sim.Engine
	index   int // creation order; cross-domain merge tie-break
	rack    int
	tx, rx  *sim.Resource
	handler Handler

	// Cross-domain send buffer, drained at window barriers.
	out    []crossEntry
	outSeq uint64

	// inbox stages this node's same-instant arrivals; drain submits them
	// to the rx port in (source node, send sequence) order at the tail of
	// the instant. drainFn is the bound method, allocated once.
	inbox   []*flight
	drainFn func()

	// stageAt/stageTail chain this node's same-instant barrier deliveries
	// into one staging event per (node, instant) instead of one per
	// message: flush links each further flight for the instant onto the
	// chain already scheduled. Chains are built and forgotten within a
	// single flush (stageTail is cleared before it returns), so they
	// never alias the bypass path or a later barrier.
	stageAt   sim.Time
	stageTail *flight

	// lossRng samples message drops. It is per node — not per domain — so
	// the draw sequence each sender sees is the same whether the node has
	// its own domain or shares one with other machines. Lazily built from
	// the world seed and the node's creation index; never touched while
	// LossRate is zero.
	lossRng *rand.Rand

	// free recycles this node's in-flight message carriers. The pool is
	// owned by the delivery side: carriers are taken at barriers (or for
	// loopback and intra-domain sends, in-domain) and returned during this
	// domain's execution — the two never overlap, so no locking is needed.
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

// Domain returns the event domain this node lives on. All of the node's
// traffic handling — port serialization, delivery, protocol timers —
// executes there. Nodes created with NewNodeInGroup share their domain
// with the rest of their group.
func (n *Node) Domain() *sim.Engine { return n.dom }

// SetHandler installs the delivery callback. It must be set before any
// message arrives.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// SetRack places the node in a rack. Nodes in different racks pay the
// cost model's CrossRackExtra on top of the switch one-way latency; with
// CrossRackExtra zero (the default) rack placement has no effect. Call
// during setup, before the simulation runs: the per-pair lookahead edges
// are derived from rack placement at the first window barrier.
func (n *Node) SetRack(r int) { n.rack = r }

// Rack returns the node's rack assignment (0 unless SetRack was called).
func (n *Node) Rack() int { return n.rack }

// TxQueueDelay reports the current backlog on the node's transmit port.
func (n *Node) TxQueueDelay() sim.Duration { return n.tx.QueueDelay() }

// crossEntry is one cross-domain message waiting in its source node's
// outbox for the next window barrier.
type crossEntry struct {
	at      sim.Time // arrival instant at the destination's switch port
	ser     sim.Duration
	m       Message
	src     int // source node index (creation order) — merge tie-break
	seq     uint64
	dropped bool
}

// Network is a set of nodes joined through one switch profile.
type Network struct {
	e      *sim.Engine
	p      model.Params
	nodes  []*Node
	groups map[int]*sim.Engine // affinity group id → shared domain
	merge  []crossEntry        // barrier scratch, reused across flushes

	// touched lists the nodes with an open staging chain during the
	// current flush, so their chain heads can be cleared before it
	// returns. Scratch, reused across flushes.
	touched []*Node

	// laDeclared is how many nodes had lookahead edges declared at the
	// last flush; a mismatch with len(nodes) re-declares the full matrix.
	laDeclared int
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
	next  *flight

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

// runStage executes at the arrival instant on the destination's domain.
// It only parks the flight (and, for barrier traffic, every further
// flight flush chained behind it for this instant) in the node's inbox;
// the actual rx submission happens in runDrain at the tail of the
// instant, once every arrival of the instant has been staged, so that
// submission order is decided by (source node, send sequence) rather
// than by event scheduling order — which varies with domain grouping.
func (f *flight) runStage() {
	to := f.owner
	if len(to.inbox) == 0 {
		to.dom.AtTail(to.dom.Now(), to.drainFn)
	}
	for g := f; g != nil; {
		nx := g.next
		g.next = nil
		to.inbox = append(to.inbox, g)
		g = nx
	}
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

// New returns an empty network using p's latency/bandwidth parameters.
// Scheduling lookahead is declared per node pair — minimum serialization
// plus that pair's propagation — lazily at the first window barrier after
// the node set changes.
func New(e *sim.Engine, p model.Params) *Network {
	n := &Network{e: e, p: p}
	e.World().OnBarrier(n.flush)
	return n
}

// Engine returns the simulation engine the network was created on (the
// world's root domain, not any node's domain).
func (n *Network) Engine() *sim.Engine { return n.e }

// Params returns the cost model in effect.
func (n *Network) Params() model.Params { return n.p }

// NewNode adds a machine to the network, on its own fresh event domain.
func (n *Network) NewNode(name string) *Node {
	return n.addNode(name, n.e.World().NewDomain())
}

// NewNodeInGroup adds a machine on the shared domain of affinity group
// id, creating the group's domain on first use. Grouped machines barrier
// as one domain and their mutual traffic skips the outbox entirely;
// delivery order and all observable behavior match what the same
// machines produce ungrouped.
func (n *Network) NewNodeInGroup(name string, group int) *Node {
	if n.groups == nil {
		n.groups = make(map[int]*sim.Engine)
	}
	dom := n.groups[group]
	if dom == nil {
		dom = n.e.World().NewDomain()
		n.groups[group] = dom
	}
	return n.addNode(name, dom)
}

func (n *Network) addNode(name string, dom *sim.Engine) *Node {
	node := &Node{
		net:   n,
		name:  name,
		dom:   dom,
		index: len(n.nodes),
	}
	node.tx = sim.NewResource(dom)
	node.rx = sim.NewResource(dom)
	node.drainFn = node.runDrain
	n.nodes = append(n.nodes, node)
	// The next barrier must run its hooks: flush re-declares the
	// lookahead matrix when the node set changed.
	n.e.World().RequestBarrier()
	return node
}

// propagation is the one-way switch latency between two nodes: the
// profile's OneWay, plus CrossRackExtra when the endpoints sit in
// different racks.
func (n *Network) propagation(a, b *Node) sim.Duration {
	d := n.p.Network.OneWay
	if n.p.CrossRackExtra > 0 && a.rack != b.rack {
		d += n.p.CrossRackExtra
	}
	return d
}

func (n *Node) lossRand() *rand.Rand {
	if n.lossRng == nil {
		n.lossRng = rand.New(rand.NewSource(nodeSeed(n.net.e.World().Seed(), n.index)))
	}
	return n.lossRng
}

// nodeSeed decorrelates per-node loss streams from each other and from
// the sim package's per-domain streams (one SplitMix64 step over a
// distinct increment).
func nodeSeed(seed int64, index int) int64 {
	z := uint64(seed) ^ 0xd3833e804f4c574b + uint64(index)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Send transmits m.Payload from m.From to m.To. Delivery order between a
// pair of nodes follows transmission order (FIFO ports); messages may be
// dropped when the cost model's LossRate is nonzero. Send must be called
// from the source node's domain context (or from setup code between
// runs).
func (n *Network) Send(m Message) {
	if m.From == nil || m.To == nil {
		panic("fabric: Send with nil endpoint")
	}
	if m.From == m.To {
		// Loopback: skip the wire, deliver after a negligible delay. Still
		// account the send so same-node traffic shows up in byte counters.
		// Stays entirely inside the node's own domain.
		m.From.BytesSent += int64(m.Size)
		m.From.MsgsSent++
		m.From.dom.Schedule(0, m.From.newFlight(m, 0).deliver)
		return
	}
	ser := n.p.SerializationDelay(m.Size)
	m.From.BytesSent += int64(m.Size)
	m.From.MsgsSent++
	// Source-side serialization happens on the sender's clock now. Loss
	// is sampled here, from the sender node's own RNG stream, so the draw
	// order is node-deterministic regardless of domain grouping.
	finish := m.From.tx.Submit(ser, nil)
	src := m.From
	at := finish.Add(n.propagation(m.From, m.To))
	seq := src.outSeq
	src.outSeq++
	dropped := n.p.LossRate > 0 && src.lossRand().Float64() < n.p.LossRate
	if src.dom == m.To.dom {
		// Same affinity group: the message never crosses a domain
		// boundary, so it skips the outbox and schedules its arrival
		// directly — same arrival instant, same (src, seq) label, same
		// canonical drain order as the barrier path would produce.
		if dropped {
			m.To.MsgsDropped++
			return
		}
		f := m.To.newFlight(m, ser)
		f.src = src.index
		f.seq = seq
		m.To.dom.At(at, f.stage)
		return
	}
	// Cross-domain: buffer until the window barrier; the drop is
	// accounted there. An outbox going from empty to non-empty means the
	// next barrier's flush has work — request the sweep (an atomic
	// store; sends run in parallel domain contexts).
	if len(src.out) == 0 {
		src.net.e.World().RequestBarrier()
	}
	src.out = append(src.out, crossEntry{
		at:      at,
		ser:     ser,
		m:       m,
		src:     src.index,
		seq:     seq,
		dropped: dropped,
	})
}

// flush is the window-barrier hook. It (re)declares the per-pair
// lookahead matrix whenever the node set has changed, then merges every
// node's outbox in the fixed total order (arrival time, source node,
// send sequence) and schedules the staging events on the destination
// domains. The merge order — never goroutine scheduling — decides
// tie-breaks, which is what makes multi-worker runs byte-identical to
// serial ones.
func (n *Network) flush() {
	if n.laDeclared != len(n.nodes) {
		n.declareLookahead()
	}
	buf := n.merge[:0]
	for _, node := range n.nodes {
		if len(node.out) == 0 {
			continue
		}
		buf = append(buf, node.out...)
		for i := range node.out {
			node.out[i] = crossEntry{} // drop payload references
		}
		node.out = node.out[:0]
	}
	if len(buf) == 0 {
		n.merge = buf
		return
	}
	// Each node's outbox is already time-sorted (its tx port is FIFO), so
	// this insertion sort is a cheap merge of a few sorted runs — and it
	// avoids the per-call closure allocation of sort.Slice on a hot path.
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && crossBefore(&buf[j], &buf[j-1]); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	delivered := 0
	for i := range buf {
		en := &buf[i]
		if en.dropped {
			en.m.To.MsgsDropped++
			continue
		}
		dst := en.m.To
		f := dst.newFlight(en.m, en.ser)
		f.src = en.src
		f.seq = en.seq
		// One staging event per (destination, instant): the first flight
		// for the pair is scheduled; later ones chain behind it in merge
		// order, and runStage walks the chain. Entries share an instant
		// only within one contiguous time run of the sorted buffer, so a
		// chain never reopens after the scan moves past its instant.
		if dst.stageTail != nil && dst.stageAt == en.at {
			dst.stageTail.next = f
			dst.stageTail = f
		} else {
			if dst.stageTail == nil {
				n.touched = append(n.touched, dst)
			}
			dst.stageAt = en.at
			dst.stageTail = f
			dst.dom.At(en.at, f.stage)
		}
		delivered++
	}
	for i, dst := range n.touched {
		dst.stageTail = nil
		n.touched[i] = nil
	}
	n.touched = n.touched[:0]
	n.e.World().AddCrossDeliveries(delivered)
	for i := range buf {
		buf[i] = crossEntry{}
	}
	n.merge = buf[:0]
}

// declareLookahead publishes one directed lookahead edge per cross-domain
// node pair: no message from a can affect b sooner than zero-payload
// serialization plus the pair's propagation. Far-apart pairs (cross-rack)
// thus get proportionally longer scheduling windows. The network's root
// domain also gets an edge to every node: processes spawned on the root
// engine (micro probes, library users) issue their first op from root's
// execution context before migrating to their machine's domain, and that
// send lands no sooner than the minimum wire latency. Root rarely holds
// events mid-run, so the edge almost never tightens a horizon.
func (n *Network) declareLookahead() {
	w := n.e.World()
	ser0 := n.p.SerializationDelay(0)
	minWire := ser0 + n.p.Network.OneWay
	for _, a := range n.nodes {
		if a.dom != n.e {
			w.SetLookahead(n.e, a.dom, minWire)
		}
		for _, b := range n.nodes {
			if a == b || a.dom == b.dom {
				continue
			}
			w.SetLookahead(a.dom, b.dom, ser0+n.propagation(a, b))
		}
	}
	n.laDeclared = len(n.nodes)
}

func crossBefore(a, b *crossEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

func (n *Network) deliver(m Message) {
	m.To.BytesReceived += int64(m.Size)
	m.To.MsgsReceived++
	if m.To.handler == nil {
		panic(fmt.Sprintf("fabric: node %q has no handler", m.To.name))
	}
	m.To.handler(m)
}

package rdma

import "prism/internal/sim"

// qpCache models the NIC-side residency of per-connection state (the QP
// context for hardware deployments, the stack cores' connection working
// set for software ones): a fixed-capacity LRU over connections.
// touch on a resident connection is a hit; touch on a cold one is a miss
// that evicts the least-recently-used resident when full. The server
// charges each miss a calibrated fetch penalty and serializes the fetches
// through a shared context-fetch engine (Server.qpFetch), which is what
// turns capacity overrun into the Storm-style throughput cliff rather
// than a mild per-op latency tax.
//
// The list runs through the connections themselves (serverConn.qpPrev,
// qpNext, qpResident), so the steady thrashing state allocates nothing.
// Hits, misses and evictions count into the engine's ConnCache* counters.
type qpCache struct {
	cap, n     int
	head, tail *serverConn // head = most recently used
	st         *sim.Stats
}

func newQPCache(capacity int, st *sim.Stats) *qpCache {
	return &qpCache{cap: capacity, st: st}
}

// touch records a data-path access to sc and reports whether its state
// was resident. On a miss sc is brought in, evicting the LRU connection if
// the cache is full.
func (c *qpCache) touch(sc *serverConn) bool {
	if sc.qpResident {
		c.st.ConnCacheHits++
	} else {
		c.st.ConnCacheMisses++
	}
	return c.warm(sc)
}

// warm is touch without counting a hit or miss — connection setup
// pre-establishes state just as the paper's clients pre-connect — but it
// still evicts (and counts the eviction) when the cache is full.
func (c *qpCache) warm(sc *serverConn) (resident bool) {
	resident = sc.qpResident
	if resident {
		c.unlink(sc)
	} else if c.n < c.cap {
		c.n++
	} else {
		lru := c.tail
		c.unlink(lru)
		lru.qpResident = false
		c.st.ConnCacheEvictions++
	}
	sc.qpResident = true
	c.pushFront(sc)
	return resident
}

func (c *qpCache) pushFront(sc *serverConn) {
	sc.qpPrev = nil
	sc.qpNext = c.head
	if c.head != nil {
		c.head.qpPrev = sc
	}
	c.head = sc
	if c.tail == nil {
		c.tail = sc
	}
}

func (c *qpCache) unlink(sc *serverConn) {
	if sc.qpPrev != nil {
		sc.qpPrev.qpNext = sc.qpNext
	} else {
		c.head = sc.qpNext
	}
	if sc.qpNext != nil {
		sc.qpNext.qpPrev = sc.qpPrev
	} else {
		c.tail = sc.qpPrev
	}
	sc.qpPrev, sc.qpNext = nil, nil
}

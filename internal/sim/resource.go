package sim

import "container/heap"

// Resource models a FIFO queueing station with one server: work submitted
// while the station is busy queues behind earlier work. It is the building
// block for link serialization (bandwidth) and single-core processing.
type Resource struct {
	e        *Engine
	nextFree Time
}

// NewResource returns an idle single-server resource.
func NewResource(e *Engine) *Resource { return &Resource{e: e} }

// Submit enqueues work needing service of duration d and calls fn when it
// completes. Returns the completion time.
func (r *Resource) Submit(d Duration, fn func()) Time {
	start := r.e.now
	if r.nextFree > start {
		start = r.nextFree
	}
	finish := start.Add(d)
	r.nextFree = finish
	if fn != nil {
		r.e.At(finish, fn)
	}
	return finish
}

// MultiResource models a FIFO queueing station with k identical servers
// (e.g. a pool of dedicated CPU cores). Work is dispatched to the earliest
// available server.
type MultiResource struct {
	e    *Engine
	free timeHeap // nextFree instants, one per server
}

// NewMultiResource returns an idle station with k servers.
func NewMultiResource(e *Engine, k int) *MultiResource {
	if k < 1 {
		panic("sim: MultiResource needs at least one server")
	}
	m := &MultiResource{e: e}
	m.free = make(timeHeap, k)
	return m
}

// Submit enqueues work of duration d, calling fn at completion; returns the
// completion time.
func (m *MultiResource) Submit(d Duration, fn func()) Time {
	start := m.free[0]
	if start < m.e.now {
		start = m.e.now
	}
	finish := start.Add(d)
	m.free[0] = finish
	heap.Fix(&m.free, 0)
	if fn != nil {
		m.e.At(finish, fn)
	}
	return finish
}

type timeHeap []Time

func (h timeHeap) Len() int           { return len(h) }
func (h timeHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h timeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x any)        { *h = append(*h, x.(Time)) }
func (h *timeHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

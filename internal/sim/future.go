package sim

// Future is a one-shot value produced at some virtual instant. Processes
// block on it with Wait; callback code chains on it with OnComplete.
// A Future must be completed at most once (but see Reset).
type Future[T any] struct {
	done    bool
	val     T
	waiters []func(T)
	// waitProc is the single parked Wait-er, kept out of waiters so the
	// common Issue/Wait round trip registers no closure. Resumed after the
	// callbacks, which matches the old registration order: no caller mixes
	// OnComplete and Wait on one future.
	waitProc *Proc
}

// NewFuture returns an incomplete future.
func NewFuture[T any]() *Future[T] {
	return &Future[T]{}
}

// CompletedFuture returns a future that is already resolved to v.
func CompletedFuture[T any](v T) *Future[T] {
	return &Future[T]{done: true, val: v}
}

// Complete resolves the future with v, waking all waiters (in FIFO order)
// at the current virtual instant.
func (f *Future[T]) Complete(v T) {
	if f.done {
		panic("sim: Future completed twice")
	}
	f.done = true
	f.val = v
	// Detach every waiter before firing any of them: a callback (or the
	// resumed process) may recycle this future via Reset and register new
	// waiters for its next incarnation.
	ws := f.waiters
	f.waiters = nil
	wp := f.waitProc
	f.waitProc = nil
	for _, w := range ws {
		w(v)
	}
	if wp != nil {
		wp.step()
	}
}

// Reset returns a completed future to the pending state so its owner can
// reuse the allocation for the next request. It panics on a pending
// future (waiters could be stranded). The caller must ensure no one still
// holds the future expecting the old value.
func (f *Future[T]) Reset() {
	if !f.done {
		panic("sim: Reset on pending Future")
	}
	var zero T
	f.done = false
	f.val = zero
}

// Done reports whether the future has been completed.
func (f *Future[T]) Done() bool { return f.done }

// Value returns the completed value; it panics if the future is pending.
func (f *Future[T]) Value() T {
	if !f.done {
		panic("sim: Value on pending Future")
	}
	return f.val
}

// OnComplete registers fn to run when the future completes (immediately,
// within Complete's event). If the future is already complete, fn runs now.
func (f *Future[T]) OnComplete(fn func(T)) {
	if f.done {
		fn(f.val)
		return
	}
	f.waiters = append(f.waiters, fn)
}

// Wait parks the process until the future completes and returns its value.
// The process resumes inside the event that completes the future.
func (f *Future[T]) Wait(p *Proc) T {
	if f.done {
		return f.val
	}
	if f.waitProc == nil {
		f.waitProc = p
	} else {
		// A second process waiting on the same future is rare; fall back to
		// the closure path rather than widening the struct.
		f.OnComplete(func(T) { p.step() })
	}
	p.park()
	return f.val
}

// WaitQuorum parks the process until at least k of the given futures have
// completed, then returns the completed values in completion order.
// Remaining futures keep running; their values are discarded here.
func WaitQuorum[T any](p *Proc, k int, fs []*Future[T]) []T {
	if k > len(fs) {
		panic("sim: WaitQuorum k exceeds future count")
	}
	got := make([]T, 0, k)
	if k == 0 {
		return got
	}
	parked := false
	for _, f := range fs {
		f.OnComplete(func(v T) {
			if len(got) >= k {
				return // quorum already satisfied
			}
			got = append(got, v)
			if len(got) == k && parked {
				p.step()
			}
		})
		if len(got) >= k {
			break
		}
	}
	if len(got) < k {
		parked = true
		p.park()
	}
	return got
}

// Signal is a Future[struct{}] convenience for pure-event notification.
type Signal = Future[struct{}]

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return NewFuture[struct{}]() }

// Fire completes the signal.
func Fire(s *Signal) { s.Complete(struct{}{}) }

// WaitGroup counts down to zero and then wakes waiters. Unlike sync's, it
// is virtual-time and single-threaded.
type WaitGroup struct {
	count int
	sig   *Signal
}

// NewWaitGroup returns a WaitGroup expecting n completions.
func NewWaitGroup(n int) *WaitGroup {
	wg := &WaitGroup{count: n, sig: NewSignal()}
	if n == 0 {
		Fire(wg.sig)
	}
	return wg
}

// Done decrements the counter; at zero, waiters wake.
func (wg *WaitGroup) Done() {
	if wg.count <= 0 {
		panic("sim: WaitGroup.Done below zero")
	}
	wg.count--
	if wg.count == 0 {
		Fire(wg.sig)
	}
}

// Wait parks until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) { wg.sig.Wait(p) }

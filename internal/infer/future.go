package infer

import (
	"sync"
	"sync/atomic"
)

// Completion pipeline (DESIGN.md §14): a Future handed out by Submit is a
// small value handle onto a pooled futureSlot. Slots are recycled through a
// sync.Pool once the caller Releases them, so the steady-state serve path
// allocates nothing per request; a generation stamp on the slot makes any
// read through a released handle fail loudly instead of silently observing
// another request's result (the classic pooled-object ABA hazard).
//
// One wake per request: a slot is pending until it resolves — when its
// batch finishes or a teardown fails it — and a waiter parks only on the
// slot's own one-token wake channel, so it is woken once, at resolve.

// futureSlot states: a slot is pending from Submit until resolve.
const (
	futPending uint32 = iota
	futResolved
)

// futureSlot is the pooled per-request completion record.
type futureSlot struct {
	// gen is the slot's generation, bumped on Release. A Future handle
	// carries the generation it was issued under; any mismatch means the
	// handle outlived its request and every access panics loudly.
	gen atomic.Uint64
	// state is pending or resolved. resolve writes the result fields
	// before the state store, so a reader observing futResolved also
	// observes the result.
	state atomic.Uint32
	// waiting marks a waiter parked on wake; resolve checks it after its
	// state store and hands the parked waiter a token.
	waiting atomic.Bool
	// wake is the one-token park channel, reused across generations (stale
	// tokens are drained at acquire). A waiter woken on a resolved slot
	// reposts the token so concurrent waiters on one future daisy-chain; a
	// waiter woken on a pending slot (a late token from the slot's previous
	// generation) parks again.
	wake chan struct{}

	// payload is the submitted input, dropped at completion so input bytes
	// never outlive the request.
	payload any

	// Result fields: written before state flips to futResolved, immutable
	// until Release.
	result  any
	err     error
	models  []string
	latency float64
}

// futurePool recycles completion slots across requests.
var futurePool = sync.Pool{New: func() any {
	return &futureSlot{wake: make(chan struct{}, 1)}
}}

// acquireSlot takes a slot from the pool and primes it for one request.
func acquireSlot(payload any) (Future, *futureSlot) {
	s := futurePool.Get().(*futureSlot)
	select { // drop a stale daisy-chain token from the previous generation
	case <-s.wake:
	default:
	}
	s.waiting.Store(false)
	s.payload = payload
	s.state.Store(futPending)
	return Future{s: s, gen: s.gen.Load()}, s
}

// recycle returns a slot that was never exposed beyond Submit (admission
// failed) straight to the pool.
func (s *futureSlot) recycle() {
	s.gen.Add(1)
	s.payload = nil
	futurePool.Put(s)
}

// resolve publishes the request's outcome, drops its payload and wakes a
// parked waiter. The seq-cst ordering of the state store and the waiting
// check against the waiter's waiting store and state re-check guarantees at
// least one side observes the other, so no wakeup is lost. The slot must not
// be touched after resolve: its waiter may Release it at once.
func (s *futureSlot) resolve(result any, err error, models []string, latency float64) {
	s.result, s.err = result, err
	s.models, s.latency = models, latency
	s.payload = nil
	s.state.Store(futResolved)
	if s.waiting.Load() {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// Future is a pending wall-clock request: it resolves when the batch the
// scheduler placed the request in completes. It is a value handle onto a
// pooled slot — copy it freely, but once Release is called every surviving
// copy is dead: further use panics (generation-stamp check) instead of
// silently reading a recycled request's state.
type Future struct {
	s   *futureSlot
	gen uint64
}

// Valid reports whether the handle refers to a submitted request (the zero
// Future does not).
func (f Future) Valid() bool { return f.s != nil }

// slot validates the handle and returns its slot.
func (f Future) slot() *futureSlot {
	if f.s == nil {
		panic("infer: use of zero Future")
	}
	f.checkLive()
	return f.s
}

// checkLive re-validates the handle after reading slot state, so a Release
// racing a read panics instead of returning a recycled slot's data.
func (f Future) checkLive() {
	if f.gen != f.s.gen.Load() {
		panic("infer: use of released Future (stale generation handle)")
	}
}

// Wait blocks until the request resolves and returns its result.
func (f Future) Wait() (any, error) {
	s := f.slot()
	for {
		if s.state.Load() == futResolved {
			res, err := s.result, s.err
			f.checkLive()
			return res, err
		}
		// Declare ourselves parked, then re-check: resolve stores the
		// state first and checks waiting second, so one of us always sees
		// the other.
		s.waiting.Store(true)
		if s.state.Load() == futResolved {
			continue
		}
		<-s.wake
		if s.state.Load() == futResolved {
			// Pass the token on to any concurrent waiter on this future.
			select {
			case s.wake <- struct{}{}:
			default:
			}
		}
	}
}

// Models returns the model subset that served the request (after Wait). The
// slice is the caller's own copy, built on call: batch siblings share the
// subset's names, and mutating a returned copy cannot corrupt theirs.
func (f Future) Models() []string {
	s := f.slot()
	m := s.models
	cp := append([]string(nil), m...)
	f.checkLive()
	return cp
}

// Latency returns the request's queue+service latency in timeline seconds
// (after Wait).
func (f Future) Latency() float64 {
	s := f.slot()
	l := s.latency
	f.checkLive()
	return l
}

// Release returns the future's slot to the pool for reuse. Callers on the
// serving hot path release after Wait so the completion pipeline recycles
// slots instead of allocating one per request; callers that drop the handle
// instead simply leave the slot to the garbage collector. Release requires a
// resolved future (Wait returned) and must be called at most once — every
// surviving handle copy is invalidated, and any later use panics via the
// generation stamp.
func (f Future) Release() {
	s := f.slot()
	if s.state.Load() != futResolved {
		panic("infer: Release of unresolved Future")
	}
	// The CAS both invalidates outstanding handles and makes a double
	// Release fail loudly instead of double-pooling the slot.
	if !s.gen.CompareAndSwap(f.gen, f.gen+1) {
		panic("infer: Future released twice")
	}
	s.payload = nil
	s.result = nil
	s.err = nil
	s.models = nil
	s.latency = 0
	s.waiting.Store(false)
	futurePool.Put(s)
}

package sim

import (
	"sync"
	"time"
)

// Timeline abstracts "what time is it, and run this later" so serving code
// can be driven either by the virtual-time EventLoop (deterministic
// experiments) or by the process clock (real concurrent traffic). Times are
// seconds since the timeline's origin.
//
// Implementations differ in execution model: EventLoop fires callbacks
// single-threaded from Step/RunUntil, while WallTimeline fires them from
// timer goroutines — Timeline consumers must do their own locking if they
// can be driven concurrently.
type Timeline interface {
	// Now returns the current time in seconds.
	Now() float64
	// AfterFunc schedules fn to run d seconds from now. Non-positive d
	// schedules fn as soon as possible.
	AfterFunc(d float64, fn func())
}

// ConcurrentTimeline marks Timeline implementations whose methods are safe
// to call from any goroutine and whose callbacks may run concurrently with
// each other. WallTimeline is one; the EventLoop is not (its heap is
// unlocked and callbacks fire single-threaded from Step/RunUntil), so
// consumers that would otherwise offload work to worker goroutines must
// stay synchronous when this interface is absent.
type ConcurrentTimeline interface {
	Timeline
	// ConcurrentScheduling is a marker; it does nothing.
	ConcurrentScheduling()
}

// AfterFunc implements Timeline over the event loop's virtual clock.
func (l *EventLoop) AfterFunc(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	l.After(d, fn)
}

// WallTimeline is the process-clock Timeline: Now is the wall time elapsed
// since the first observation, scaled by Speedup, and AfterFunc arms real
// timers. It is safe for concurrent use.
//
// Speedup is the number of timeline seconds that pass per wall-clock second
// (default 1: timeline time is wall time). Serving latencies in this
// codebase are simulated from profiled GPU costs, so a test or demo can run
// a "wall-clock" deployment hundreds of times faster than real time while
// every duration, SLO and latency metric stays in profiled seconds.
//
// Scheduled callbacks fire serially from one dispatcher goroutine over a
// deadline min-heap, not from a time.AfterFunc goroutine per firing: under a
// dispatch storm tens of thousands of timers fire per second, and one
// runnable goroutine per firing both blows the process goroutine peak and
// allocates a runtime timer per callback. Callbacks must therefore be short
// and non-blocking — every serving-plane wall callback is a flag-set or a
// channel close. The dispatcher parks in no pool: it exits whenever the
// heap drains and is respawned by the next AfterFunc, so an idle timeline
// holds zero goroutines and needs no Close. Its entry point and sleep timer
// live as long as the timeline, so a respawn allocates nothing.
type WallTimeline struct {
	Speedup float64

	once  sync.Once
	start time.Time

	mu      sync.Mutex
	events  []wallEvent
	running bool
	// next is the deadline the dispatcher is currently sleeping toward;
	// wake (cap 1) interrupts that sleep when an earlier event arrives.
	next time.Time
	wake chan struct{}
	// timer is the dispatcher's sleep and dispatchFn its cached entry
	// point; only the one running dispatcher touches timer.
	timer      *time.Timer
	dispatchFn func()
}

// wallEvent is one scheduled callback; events ride the heap by value.
type wallEvent struct {
	when time.Time
	fn   func()
}

func (w *WallTimeline) speedup() float64 {
	if w.Speedup <= 0 {
		return 1
	}
	return w.Speedup
}

func (w *WallTimeline) init() {
	w.once.Do(func() { w.start = time.Now() })
}

// Now implements Timeline.
func (w *WallTimeline) Now() float64 {
	w.init()
	return time.Since(w.start).Seconds() * w.speedup()
}

// ConcurrentScheduling marks the WallTimeline as safe for concurrent use
// (ConcurrentTimeline).
func (w *WallTimeline) ConcurrentScheduling() {}

// AfterFunc implements Timeline: fn runs on the timeline's dispatcher
// goroutine after d timeline seconds (d/Speedup wall seconds). fn must not
// block — it delays every later callback on the same timeline.
func (w *WallTimeline) AfterFunc(d float64, fn func()) {
	w.init()
	if d < 0 {
		d = 0
	}
	when := time.Now().Add(time.Duration(d / w.speedup() * float64(time.Second)))
	w.mu.Lock()
	if w.wake == nil {
		w.wake = make(chan struct{}, 1)
		w.dispatchFn = w.dispatch
	}
	w.push(wallEvent{when: when, fn: fn})
	if !w.running {
		w.running = true
		w.mu.Unlock()
		go w.dispatchFn()
		return
	}
	// A sleeping dispatcher aims at w.next; an earlier arrival has to
	// interrupt the sleep or it would fire late. The token send is
	// non-blocking: one pending token already guarantees a re-evaluation.
	interrupt := when.Before(w.next)
	w.mu.Unlock()
	if interrupt {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// dispatch drains the deadline heap: run everything due, sleep until the
// earliest remaining deadline (or an earlier arrival's wake token), exit
// when the heap is empty.
func (w *WallTimeline) dispatch() {
	for {
		w.mu.Lock()
		if len(w.events) == 0 {
			w.running = false
			w.mu.Unlock()
			return
		}
		now := time.Now()
		if !w.events[0].when.After(now) {
			ev := w.pop()
			w.mu.Unlock()
			// Outside the lock: callbacks may re-enter AfterFunc.
			ev.fn()
			continue
		}
		w.next = w.events[0].when
		d := w.events[0].when.Sub(now)
		w.mu.Unlock()
		if w.timer == nil {
			w.timer = time.NewTimer(d)
		} else {
			w.timer.Reset(d) // Go ≥ 1.23 timers: no stale tick to drain
		}
		select {
		case <-w.timer.C:
		case <-w.wake:
			w.timer.Stop()
		}
	}
}

// push and pop maintain the wallEvent min-heap by value — container/heap
// would box every event into an interface on the submit hot path.
func (w *WallTimeline) push(ev wallEvent) {
	w.events = append(w.events, ev)
	i := len(w.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !w.events[i].when.Before(w.events[parent].when) {
			break
		}
		w.events[i], w.events[parent] = w.events[parent], w.events[i]
		i = parent
	}
}

func (w *WallTimeline) pop() wallEvent {
	ev := w.events[0]
	last := len(w.events) - 1
	w.events[0] = w.events[last]
	w.events[last] = wallEvent{}
	w.events = w.events[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(w.events) && w.events[l].when.Before(w.events[min].when) {
			min = l
		}
		if r < len(w.events) && w.events[r].when.Before(w.events[min].when) {
			min = r
		}
		if min == i {
			break
		}
		w.events[i], w.events[min] = w.events[min], w.events[i]
		i = min
	}
	return ev
}

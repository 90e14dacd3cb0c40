// Package sim provides the deterministic simulation substrate used by every
// Rafiki experiment: a discrete-event loop over a virtual clock, and seeded,
// splittable random number generators.
//
// The paper's serving experiments run for 1,500+ wall-clock seconds against
// GPU-backed models; here the same request streams and scheduling decisions
// are driven over virtual time so experiments replay deterministically and
// finish in milliseconds.
package sim

import (
	"container/heap"
	"fmt"
)

// Event is a scheduled callback in an EventLoop.
type Event struct {
	At  float64 // virtual time at which the event fires
	Fn  func()  // callback; runs with the loop clock set to At
	seq uint64  // tie-break so equal-time events run in schedule order
	idx int     // heap index
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// EventLoop is a single-threaded discrete-event simulator over a virtual
// clock in seconds, starting at t=0. Events scheduled for the same instant
// fire in the order they were scheduled. The clock never runs backwards:
// Schedule refuses the past, so each Step moves it forward to the earliest
// event.
type EventLoop struct {
	now   float64
	queue eventHeap
	seq   uint64
}

// NewEventLoop returns an event loop whose clock starts at t=0.
func NewEventLoop() *EventLoop { return &EventLoop{} }

// Now returns the loop's current virtual time in seconds.
func (l *EventLoop) Now() float64 { return l.now }

// Schedule registers fn to run at absolute virtual time at. Scheduling in the
// past panics. It returns the event so callers may Cancel it.
func (l *EventLoop) Schedule(at float64, fn func()) *Event {
	if at < l.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, l.now))
	}
	l.seq++
	e := &Event{At: at, Fn: fn, seq: l.seq}
	heap.Push(&l.queue, e)
	return e
}

// After registers fn to run d seconds from now.
func (l *EventLoop) After(d float64, fn func()) *Event {
	return l.Schedule(l.now+d, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or already-
// cancelled event is a no-op and returns false.
func (l *EventLoop) Cancel(e *Event) bool {
	if e == nil || e.idx < 0 || e.idx >= len(l.queue) || l.queue[e.idx] != e {
		return false
	}
	heap.Remove(&l.queue, e.idx)
	return true
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event fired.
func (l *EventLoop) Step() bool {
	if len(l.queue) == 0 {
		return false
	}
	e := heap.Pop(&l.queue).(*Event)
	l.now = e.At
	e.Fn()
	return true
}

// RunUntil fires events until the queue is empty or the next event is after
// deadline. The clock finishes at min(deadline, last event time); it is moved
// to deadline if events run dry earlier, so callers observe a full window.
func (l *EventLoop) RunUntil(deadline float64) {
	for len(l.queue) > 0 && l.queue[0].At <= deadline {
		l.Step()
	}
	if l.now < deadline {
		l.now = deadline
	}
}

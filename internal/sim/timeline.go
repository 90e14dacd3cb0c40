package sim

import (
	"context"
	"sync"
	"time"
)

// Timeline abstracts "what time is it, and run this later" so serving code
// can be driven either by the virtual-time EventLoop (deterministic
// experiments) or by the process clock (real concurrent traffic). Times are
// seconds since the timeline's origin.
//
// Implementations differ in execution model: EventLoop fires callbacks
// single-threaded from Step/RunUntil, while WallTimeline fires each one on
// its own goroutine — Timeline consumers must do their own locking if they
// can be driven concurrently.
type Timeline interface {
	// Now returns the current time in seconds.
	Now() float64
	// AfterFunc schedules fn to run d seconds from now. Non-positive d
	// schedules fn as soon as possible.
	AfterFunc(d float64, fn func())
}

// ConcurrentTimeline is a Timeline whose methods are safe to call from any
// goroutine, whose callbacks may run concurrently with each other, and on
// which a goroutine may block for a span of timeline time. WallTimeline is
// one; the EventLoop is not (its heap is unlocked, its callbacks fire
// single-threaded from Step/RunUntil, and a goroutine blocked on it would
// stop its clock), so consumers that would otherwise offload work to worker
// goroutines must stay synchronous when this interface is absent.
type ConcurrentTimeline interface {
	Timeline
	// Sleep blocks for d timeline seconds, or returns ctx.Err() when ctx
	// is done first.
	Sleep(ctx context.Context, d float64) error
}

// AfterFunc implements Timeline over the event loop's virtual clock.
func (l *EventLoop) AfterFunc(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	l.After(d, fn)
}

// WallTimeline is the process-clock Timeline: Now is the wall time elapsed
// since the first call of Now, scaled by Speedup, and AfterFunc and Sleep
// wait on the runtime's own timers. It is safe for concurrent use and holds
// no goroutine of its own, so it needs no Close.
//
// Speedup is the number of timeline seconds that pass per wall-clock second
// (default 1: timeline time is wall time). Serving latencies in this
// codebase are simulated from profiled GPU costs, so a test or demo can run
// a "wall-clock" deployment hundreds of times faster than real time while
// every duration, SLO and latency metric stays in profiled seconds.
type WallTimeline struct {
	Speedup float64

	once  sync.Once
	start time.Time
}

func (w *WallTimeline) speedup() float64 {
	if w.Speedup <= 0 {
		return 1
	}
	return w.Speedup
}

// wall converts d timeline seconds to the wall duration they last;
// non-positive d is no time at all.
func (w *WallTimeline) wall(d float64) time.Duration {
	return time.Duration(max(d, 0) / w.speedup() * float64(time.Second))
}

// Now implements Timeline.
func (w *WallTimeline) Now() float64 {
	w.once.Do(func() { w.start = time.Now() })
	return time.Since(w.start).Seconds() * w.speedup()
}

// AfterFunc implements Timeline: fn runs on its own goroutine after d
// timeline seconds (d/Speedup wall seconds).
func (w *WallTimeline) AfterFunc(d float64, fn func()) {
	time.AfterFunc(w.wall(d), fn)
}

// sleepTimers recycles Sleep's timers, so a steady stream of sleeps
// allocates none. A recycled timer carries no stale tick into its next
// Sleep: since Go 1.23 (this module's go line is 1.24) Stop discards a
// tick the channel has not delivered, and a timer Stop reports as already
// fired (possible only under GODEBUG=asynctimerchan=1) is dropped rather
// than pooled.
var sleepTimers sync.Pool

// Sleep implements ConcurrentTimeline on a pooled timer.
func (w *WallTimeline) Sleep(ctx context.Context, d float64) error {
	t, _ := sleepTimers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(w.wall(d))
	} else {
		t.Reset(w.wall(d))
	}
	select {
	case <-t.C:
		sleepTimers.Put(t)
		return nil
	case <-ctx.Done():
		if t.Stop() {
			sleepTimers.Put(t)
		}
		return ctx.Err()
	}
}

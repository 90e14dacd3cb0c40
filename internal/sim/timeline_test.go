package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestWallTimelineSleepLasts: a Sleep of d timeline seconds lasts at least
// d/Speedup of wall time, and so does the wait before an AfterFunc callback.
func TestWallTimelineSleepLasts(t *testing.T) {
	w := &WallTimeline{Speedup: 50}
	const d = 0.5 // timeline seconds: 10ms of wall time
	want := time.Duration(d / w.Speedup * float64(time.Second))
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := w.Sleep(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got < want {
			t.Fatalf("Sleep(%v) at speedup %v lasted %v, want >= %v", d, w.Speedup, got, want)
		}
	}
	fired := make(chan time.Duration, 1)
	start := time.Now()
	w.AfterFunc(d, func() { fired <- time.Since(start) })
	if got := <-fired; got < want {
		t.Fatalf("AfterFunc(%v) fired after %v, want >= %v", d, got, want)
	}
}

// TestWallTimelineSleepCancels: a Sleep whose context is cancelled returns
// the context's error at once, not when its timer would have fired — both
// when the context is done before the Sleep starts and when it is cancelled
// during it.
func TestWallTimelineSleepCancels(t *testing.T) {
	w := &WallTimeline{Speedup: 1}
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	if err := w.Sleep(done, 3600); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on a done context = %v, want context.Canceled", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	start := time.Now()
	err := w.Sleep(ctx, 3600)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled hour-long Sleep returned after %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Sleep = %v, want context.Canceled", err)
	}
}

// TestWallTimelineSleepNoStaleTick alternates sleeps cancelled as their
// timers come due with sleeps that complete: every completed Sleep must last
// its full span, which a recycled timer delivering the tick of an earlier,
// cancelled Sleep would cut short.
func TestWallTimelineSleepNoStaleTick(t *testing.T) {
	w := &WallTimeline{Speedup: 1}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	const full = 200 * time.Microsecond
	for i := 0; i < 300; i++ {
		// A zero or one-microsecond timer is due (or nearly) when the done
		// context is seen, so the cancelled Sleep races its own tick.
		_ = w.Sleep(done, float64(i%2)*1e-6)
		start := time.Now()
		if err := w.Sleep(context.Background(), full.Seconds()); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got < full {
			t.Fatalf("sleep %d lasted %v after a cancelled one, want >= %v", i, got, full)
		}
	}
}

// TestWallTimelineSleepAllocs: a steady-state Sleep reuses a pooled timer
// and allocates nothing.
func TestWallTimelineSleepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	w := &WallTimeline{Speedup: 1}
	ctx := context.Background()
	sleep := func() { _ = w.Sleep(ctx, 1e-6) }
	sleep()
	if got := testing.AllocsPerRun(100, sleep); got != 0 {
		t.Fatalf("allocs per Sleep = %v, want 0", got)
	}
}

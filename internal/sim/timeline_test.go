package sim

import (
	"runtime"
	"testing"
)

// TestWallTimelineRespawnAllocs: one idle → fire → drain cycle of the
// dispatcher — an AfterFunc on an idle timeline spawns it, it sleeps on its
// timer, fires the callback and exits on the empty heap — allocates nothing
// once the timeline has run one cycle.
func TestWallTimelineRespawnAllocs(t *testing.T) {
	w := &WallTimeline{}
	fired := make(chan struct{}, 1)
	fn := func() { fired <- struct{}{} }
	cycle := func() {
		w.AfterFunc(1e-5, fn)
		<-fired
		for {
			w.mu.Lock()
			idle := !w.running
			w.mu.Unlock()
			if idle {
				return
			}
			runtime.Gosched()
		}
	}
	cycle()
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Fatalf("allocs per respawn cycle = %v, want 0", got)
	}
}

package main

import (
	"testing"
	"time"
)

// Coordinated omission: when the target stalls, an open loop must charge the
// requests queued behind the stall from their due time, not from when the
// generator got round to sending them.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	arena, err := newSampleArena()
	if err != nil {
		t.Fatal(err)
	}
	defer arena.close()
	const n, gap, stall = 60, time.Millisecond, 80 * time.Millisecond
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(i+1) * int64(gap)
	}
	// One worker, so a stalled operation blocks every later send.
	res := runLoad(loadPlan{callers: 1, warmOps: 5, slices: 1, sliceDur: 50 * time.Millisecond, limit: 10 * time.Millisecond, dueNs: due},
		arena, func(_, i int) outcome {
			if i == 10 {
				time.Sleep(stall)
			}
			return opCorrect
		})
	ws, err := res.stats()
	if err != nil {
		t.Fatal(err)
	}
	// Operations 5..54 are due inside the 50 ms window; all of them must be
	// recorded even though most completed after the window closed.
	if ws.counts.attempted != 50 {
		t.Fatalf("attempted = %d, want the 50 operations due in the window", ws.counts.attempted)
	}
	// Operation 11 was due 1 ms after the stall began and left ~79 ms late.
	rec := res.recs[0]
	if worst := time.Duration(rec.lat[11-5]); worst < 70*time.Millisecond {
		t.Errorf("operation behind the stall charged %v; want ≈%v from its due time", worst, stall-gap)
	}
	if late := time.Duration(rec.late[11-5]); late < 70*time.Millisecond {
		t.Errorf("lateness of the operation behind the stall = %v, want ≈%v", late, stall-gap)
	}
	// Everything due during the stall misses the 10 ms limit.
	if ws.counts.within > 20 {
		t.Errorf("%d operations within the limit; the ~45 queued behind the stall must miss it", ws.counts.within)
	}
}

// A closed loop records only operations completed inside the window and
// splits them into slices by completion time.
func TestClosedLoopSlices(t *testing.T) {
	arena, err := newSampleArena()
	if err != nil {
		t.Fatal(err)
	}
	defer arena.close()
	res := runLoad(loadPlan{callers: 2, warmOps: 10, slices: 4, sliceDur: 20 * time.Millisecond, limit: time.Second},
		arena, func(_, i int) outcome {
			time.Sleep(time.Millisecond)
			if i%10 == 3 {
				return opRejected
			}
			return opCorrect
		})
	ws, err := res.stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.thr) != 4 || len(ws.p50) != 4 || len(ws.cpu) != 4 {
		t.Fatalf("want 4 slices, got thr=%d p50=%d cpu=%d", len(ws.thr), len(ws.p50), len(ws.cpu))
	}
	if ws.counts.rejected == 0 || ws.counts.attempted != ws.counts.answered+ws.counts.rejected {
		t.Errorf("counts do not balance: %+v", ws.counts)
	}
	for k, p := range ws.p50 {
		if p < 1 || p > 15 {
			t.Errorf("slice %d median latency %.2f ms, want about 1 ms", k, p)
		}
	}
	if ws.p99Supported {
		t.Error("a few dozen samples per slice must not support p99")
	}
}

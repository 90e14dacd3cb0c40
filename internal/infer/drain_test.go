package infer

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// TestShardedDrainOccupancyInvariant is the occupancy invariant gate: the
// runtime's decision step drains one FIFO against two-replica pools,
// releasing each pass's replica at its model-finish time and deciding then,
// the way the runtime does (so decision points see pools with some replicas
// still busy), and grows every pool to three replicas live mid-run. It must
// hold that
//
//   - no replica is ever double-booked: per (model, replica), the busy
//     intervals [Decided, ModelFinish] of all outcomes never overlap;
//   - every submitted request is served exactly once;
//   - requests are dispatched in arrival order.
func TestShardedDrainOccupancyInvariant(t *testing.T) {
	d := replicaDeployment(t, 5.0, 2)
	rt, p := handRuntime(t, d, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500))

	const total = 600
	nextID := uint64(0)
	enqueue := func(now float64, n int) {
		// IDs are assigned in arrival order, so FIFO order is exactly
		// ascending ID order.
		for i := 0; i < n; i++ {
			if !rt.enqueue(Request{ID: nextID, Arrival: now}) {
				t.Fatalf("enqueue %d rejected", nextID)
			}
			nextID++
		}
	}

	var outs []dispatchOutcome
	var finishes []float64
	now := 0.0
	enqueue(now, total/2)
	for step := 0; step < 1000 && rt.queueLen() > 0; step++ {
		for _, out := range outs {
			for i, m := range out.Models {
				if out.ModelFinish[i] <= now {
					rt.release(m, out.Replicas[i], out.ModelFinish[i], out.ModelFinish[i])
				}
			}
		}
		dispatched, err := rt.decide(now)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range dispatched {
			outs = append(outs, out)
			finishes = append(finishes, out.ModelFinish...)
		}
		if step == 2 {
			// Live growth with a standing backlog and busy replicas: the
			// new slots take work without disturbing the busy ones. The
			// policy holds through the growth's own decision points, so
			// the new slots' work is dispatched by the test's decide.
			p.on = true
			for m := range d.Profiles {
				if err := rt.SetReplicas(m, 3); err != nil {
					t.Fatal(err)
				}
			}
			p.on = false
			enqueue(now, total/2)
		}
		// Step next at the earliest pending model finish. With none pending,
		// Algorithm 3 is waiting out its back-off on a shallow tail: jump a
		// full SLO so deadline pressure fires.
		next := math.Inf(1)
		for _, f := range finishes {
			if f > now && f < next {
				next = f
			}
		}
		if math.IsInf(next, 1) {
			next = now + d.Tau
		}
		now = next
	}
	if got := rt.queueLen(); got != 0 {
		t.Fatalf("backlog left after draining: %d", got)
	}

	// Exactly-once service, in arrival order.
	seen := make(map[uint64]bool, total)
	var last uint64
	for i, out := range outs {
		for j, req := range out.Requests {
			if seen[req.ID] {
				t.Fatalf("request %d dispatched twice", req.ID)
			}
			if (i > 0 || j > 0) && req.ID <= last {
				t.Fatalf("FIFO order broken: id %d after %d", req.ID, last)
			}
			seen[req.ID], last = true, req.ID
		}
	}
	if len(seen) != total {
		t.Fatalf("served %d distinct requests, want %d", len(seen), total)
	}

	// No double-booked replica: per (model, replica), busy intervals are
	// disjoint.
	type interval struct{ start, end float64 }
	busy := map[[2]int][]interval{}
	for _, out := range outs {
		for i, m := range out.Models {
			key := [2]int{m, out.Replicas[i]}
			busy[key] = append(busy[key], interval{out.Decided, out.ModelFinish[i]})
		}
	}
	for key, ivs := range busy {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end-1e-9 {
				t.Fatalf("model %d replica %d double-booked: [%v,%v] overlaps [%v,%v]",
					key[0], key[1], ivs[i-1].start, ivs[i-1].end, ivs[i].start, ivs[i].end)
			}
		}
	}
	// The invariant must have been exercised on the grown pools.
	for m := range d.Profiles {
		if len(busy[[2]int{m, 2}]) == 0 {
			t.Fatalf("model %d never dispatched onto its live-added replica 2", m)
		}
	}
}

// TestGoroutinePeakBoundedUnderFlood is the goroutine gate: eight
// submitters flood a runtime (four replicas per model, every future awaited
// and released) while the process goroutine count is sampled. A pass worker
// runs only while its pass holds a replica and parks for the next one, and
// one sweep worker parks, so the peak stays O(replicas + submitters); one
// goroutine per dispatch or per request would blow straight past the bound.
// The late case runs every pass for 3× its profile, so replicas stay held
// past their plans and the backlog waits on them.
func TestGoroutinePeakBoundedUnderFlood(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend Backend
	}{
		{"sim", nil},
		{"late", &lateBackend{factor: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) { floodGoroutinePeak(t, tc.backend) })
	}
}

func floodGoroutinePeak(t *testing.T, backend Backend) {
	const (
		requests, submitters = 16000, 8
		maxGoroutines        = 128
	)
	d := replicaDeployment(t, 0.25, 4)
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200),
		func(ids []uint64, payloads []any, models []string, preds [][]any) ([]any, error) {
			return make([]any, len(ids)), nil
		},
		RuntimeConfig{
			Timeline: &sim.WallTimeline{Speedup: 1000},
			QueueCap: 1 << 30,
			Backend:  backend,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	peak := runtime.NumGoroutine()
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			peak = max(peak, runtime.NumGoroutine())
		}
	}()

	var payload any = []byte("q")
	futs := make([][]Future, submitters)
	errs := make(chan error, submitters)
	var wg sync.WaitGroup
	for s := range futs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < requests/submitters; i++ {
				f, err := rt.Submit(payload)
				if err != nil {
					errs <- err
					return
				}
				futs[s] = append(futs[s], f)
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, fs := range futs {
		for _, f := range fs {
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
			f.Release()
		}
	}
	close(stop)
	sampler.Wait()
	st := rt.Stats()
	if st.Served != requests {
		t.Fatalf("served = %d, want %d", st.Served, requests)
	}
	t.Logf("goroutine peak %d over %d dispatches", peak, st.Dispatches)
	if peak > maxGoroutines {
		t.Fatalf("goroutine peak %d exceeds the gate %d (dispatches=%d)", peak, maxGoroutines, st.Dispatches)
	}
}

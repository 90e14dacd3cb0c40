package infer

import (
	"fmt"
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
// engine drains eight shards against two-replica pools, stepping at every
// model-finish time the way the drivers do (so decision points see pools
// with some replicas still busy), with work-stealing active (shallow shards)
// and a live re-shard mid-run. It must hold that
//
//   - no replica is ever double-booked: per (model, replica), the busy
//     intervals [Decided, ModelFinish] of all outcomes never overlap;
//   - every submitted request is served exactly once;
//   - requests within a shard are never reordered, even when work-stealing
//     pulls sibling requests into another shard's batch.
func TestShardedDrainOccupancyInvariant(t *testing.T) {
	d := replicaDeployment(t, 5.0, 2)
	e := NewEngine(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500), 0)
	if err := e.SetShards(8); err != nil {
		t.Fatal(err)
	}

	const total = 600
	nextID := uint64(0)
	enqueue := func(now float64, n int) {
		// IDs are assigned in arrival order, so per-shard FIFO order is
		// exactly ascending ID order (a re-shard's arrival-order re-hash
		// breaks ties by ID).
		for i := 0; i < n; i++ {
			if !e.Enqueue(now, Request{ID: nextID, Arrival: now}) {
				t.Fatalf("enqueue %d rejected", nextID)
			}
			nextID++
		}
	}

	// recs holds every outcome in dispatch order, tagged with the
	// shard-topology epoch it ran under (a live re-shard starts a new one).
	type record struct {
		out   DispatchOutcome
		epoch int
	}
	var recs []record
	var finishes []float64
	now, epoch := 0.0, 0
	enqueue(now, total/2)
	for step := 0; step < 1000 && e.QueueLen() > 0; step++ {
		outs, err := e.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range outs {
			recs = append(recs, record{out: out, epoch: epoch})
			finishes = append(finishes, out.ModelFinish...)
		}
		if step == 2 {
			// Live re-shard with a standing backlog and busy replicas:
			// nothing may be lost or reordered within the new shards.
			if err := e.SetShards(5); err != nil {
				t.Fatal(err)
			}
			epoch++
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
	if got := e.QueueLen(); got != 0 {
		t.Fatalf("backlog left after draining: %d", got)
	}

	// Exactly-once service.
	seen := make(map[uint64]bool, total)
	for _, r := range recs {
		for _, req := range r.out.Requests {
			if seen[req.ID] {
				t.Fatalf("request %d dispatched twice", req.ID)
			}
			seen[req.ID] = true
		}
	}
	if len(seen) != total {
		t.Fatalf("served %d distinct requests, want %d", len(seen), total)
	}

	// No double-booked replica: per (model, replica), busy intervals are
	// disjoint.
	type interval struct{ start, end float64 }
	busy := map[[2]int][]interval{}
	for _, r := range recs {
		for i, m := range r.out.Models {
			key := [2]int{m, r.out.Replicas[i]}
			busy[key] = append(busy[key], interval{r.out.Decided, r.out.ModelFinish[i]})
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

	// Per-shard FIFO order per topology epoch: a batch lists each shard's
	// requests oldest-first, so per (epoch, shard) dispatched IDs ascend in
	// dispatch order.
	shardsByEpoch := []int{8, 5}
	lastID := map[[2]int]uint64{}
	stolen := 0
	for _, r := range recs {
		stolen += r.out.Stolen
		for _, req := range r.out.Requests {
			key := [2]int{r.epoch, shardFor(req.ID, shardsByEpoch[r.epoch])}
			if last, ok := lastID[key]; ok && req.ID <= last {
				t.Fatalf("epoch %d shard %d reordered: id %d after %d", key[0], key[1], req.ID, last)
			}
			lastID[key] = req.ID
		}
	}
	// The invariant must have been exercised under stealing: shallow
	// 8-way-split shards cannot fill 16-batches alone.
	if stolen == 0 {
		t.Fatal("test never exercised work-stealing; deepen the backlog")
	}
}

// TestGoroutinePeakBoundedUnderFlood is the bounded-pool gate: eight
// submitters flood an 8-shard runtime (four replicas per model, every future
// awaited and released) while the process goroutine count is sampled. Batch
// execution runs on the per-model pools and one sweep worker parks, so the
// peak stays O(replicas + submitters); one goroutine per dispatch or per
// request would blow straight past the bound.
func TestGoroutinePeakBoundedUnderFlood(t *testing.T) {
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
			Shards:   8,
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
	if peak > maxGoroutines {
		t.Fatalf("goroutine peak %d exceeds the bounded-pool gate %d (dispatches=%d)", peak, maxGoroutines, st.Dispatches)
	}
}

// TestStatsDuringLiveReshardRace pins the flushArrivals topology race (run
// under -race): Stats and Signals deliberately take no runtime lock, so
// their arrival-buffer flush must pin the shard topology itself while a
// live re-shard swaps the shard slice — without the pin this crashed with
// an index out of range and a data race.
func TestStatsDuringLiveReshardRace(t *testing.T) {
	d := replicaDeployment(t, 0.25, 2)
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(3), 200),
		echoExec, RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: 200}, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = rt.Stats()
			_, _, _ = rt.Signals()
			_, _ = rt.Backpressure()
		}
	}()
	var serveWG sync.WaitGroup
	for c := 0; c < 4; c++ {
		serveWG.Add(1)
		go func(c int) {
			defer serveWG.Done()
			for i := 0; i < 30; i++ {
				f, err := rt.Submit(fmt.Sprintf("c%d-%d", c, i))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if _, err := f.Wait(); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
			}
		}(c)
	}
	for _, n := range []int{3, 16, 8, 1, 8} {
		if err := rt.SetShards(n); err != nil {
			t.Fatalf("set shards %d: %v", n, err)
		}
	}
	serveWG.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if st := rt.Stats(); st.Served != 120 {
		t.Fatalf("served = %d, want 120", st.Served)
	}
	rt.Close()
}

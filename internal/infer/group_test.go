package infer

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// dispatchRecord tags one outcome with the group that executed it, its
// sequence within the group's round, and the shard-topology epoch it ran
// under (a live re-shard starts a new epoch).
type dispatchRecord struct {
	out   DispatchOutcome
	group int
	round int
	seq   int
	epoch int
}

// TestConcurrentGroupDrainsLeaseInvariant is the occupancy invariant gate
// (run under -race): four dispatch groups drain eight shards concurrently
// against two-replica pools, with work-stealing active (shallow shards) and
// a live re-shard mid-run. It must hold that
//
//   - no replica lease is ever double-dispatched: per (model, replica), the
//     busy intervals [Decided, ModelFinish] of all outcomes never overlap;
//   - every submitted request is served exactly once;
//   - requests within a shard are never reordered, even when work-stealing
//     pulls sibling requests into another shard's batch.
func TestConcurrentGroupDrainsLeaseInvariant(t *testing.T) {
	d := replicaDeployment(t, 5.0, 2)
	e := NewEngine(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500), 0)
	if err := e.SetShards(8); err != nil {
		t.Fatal(err)
	}
	if err := e.SetGroups(4); err != nil {
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

	now := 0.0
	epoch := 0
	enqueue(now, total/2)

	var mu sync.Mutex
	var recs []dispatchRecord
	lastCount := 0
	for round := 0; round < 200 && e.QueueLen() > 0; round++ {
		var wg sync.WaitGroup
		for g := 0; g < e.GroupCount(); g++ {
			wg.Add(1)
			go func(g, round, epoch int, now float64) {
				defer wg.Done()
				outs, err := e.StepGroup(now, g)
				if err != nil {
					t.Errorf("group %d: %v", g, err)
					return
				}
				mu.Lock()
				for i, out := range outs {
					recs = append(recs, dispatchRecord{out: out, group: g, round: round, seq: i, epoch: epoch})
				}
				mu.Unlock()
			}(g, round, epoch, now)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		switch round {
		case 2:
			// Live re-shard with a standing backlog: the groups repartition
			// over 5 shards; nothing may be lost or reordered within the
			// new shards.
			if err := e.SetShards(5); err != nil {
				t.Fatal(err)
			}
			epoch++
			enqueue(now, total/2)
		case 5:
			// And a live re-grouping over the same shard set.
			if err := e.SetGroups(2); err != nil {
				t.Fatal(err)
			}
		}
		// Advance past every finish so all replicas are claimable again —
		// the next round's groups race for fresh leases. A round with no
		// dispatch means Algorithm 3 is waiting out its back-off on a
		// shallow tail: jump a full SLO so deadline pressure fires.
		maxFinish := now
		mu.Lock()
		progressed := len(recs) > lastCount
		lastCount = len(recs)
		for _, r := range recs {
			if r.out.Finish > maxFinish {
				maxFinish = r.out.Finish
			}
		}
		mu.Unlock()
		now = maxFinish + 1e-3
		if !progressed {
			now += d.Tau
		}
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

	// No double-dispatched lease: per (model, replica), busy intervals are
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
				t.Fatalf("model %d replica %d double-dispatched: [%v,%v] overlaps [%v,%v]",
					key[0], key[1], ivs[i-1].start, ivs[i-1].end, ivs[i].start, ivs[i].end)
			}
		}
	}

	// Per-shard FIFO order per topology epoch. Within an epoch a shard is
	// drained (and stolen from) by exactly one group, whose outcomes are
	// ordered by (round, seq); a batch lists each shard's requests
	// oldest-first. So per (epoch, shard), dispatched IDs must ascend.
	shardsByEpoch := []int{8, 5}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].round != recs[j].round {
			return recs[i].round < recs[j].round
		}
		if recs[i].group != recs[j].group {
			return recs[i].group < recs[j].group
		}
		return recs[i].seq < recs[j].seq
	})
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

// TestGroupedRuntimeServesAllConcurrently hammers a 4-plane, 8-shard runtime
// from concurrent goroutines (run under -race) while the dispatch-group
// count is reconfigured live: every future must resolve, the per-group
// dispatch counters must balance against the total, and batch stats must be
// populated.
func TestGroupedRuntimeServesAllConcurrently(t *testing.T) {
	d := replicaDeployment(t, 0.25, 2)
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(3), 500),
		echoExec, RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: 200}, Shards: 8, DispatchGroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.DispatchGroups(); got != 4 {
		t.Fatalf("dispatch groups = %d, want 4", got)
	}
	const clients, perClient = 8, 25
	const total = clients * perClient
	var wg sync.WaitGroup
	errs := make(chan error, total+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				f, err := rt.Submit(fmt.Sprintf("c%d-%d", c, i))
				if err != nil {
					errs <- err
					return
				}
				if _, err := f.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	// Repartition the planes while the queries fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, n := range []int{2, 8, 4} {
			if err := rt.SetDispatchGroups(n); err != nil {
				errs <- fmt.Errorf("set dispatch groups %d: %w", n, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Served != total {
		t.Fatalf("served = %d, want %d", st.Served, total)
	}
	if st.DispatchGroups != 4 || len(st.GroupDispatches) != 4 {
		t.Fatalf("stats groups = %d dispatches-per-group = %v, want 4 planes", st.DispatchGroups, st.GroupDispatches)
	}
	sum := 0
	for _, n := range st.GroupDispatches {
		sum += n
	}
	// Dispatches executed before the last re-grouping were counted against
	// the then-live plane layout; the final layout's counters can only
	// under-count the lifetime total.
	if sum > st.Dispatches || st.Dispatches == 0 {
		t.Fatalf("group dispatches %v sum to %d, want 0 < sum <= %d", st.GroupDispatches, sum, st.Dispatches)
	}
	if st.BatchSizeMean <= 0 || len(st.BatchSizeHist) == 0 {
		t.Fatalf("batch stats empty: mean=%v hist=%v", st.BatchSizeMean, st.BatchSizeHist)
	}
	rt.Close()
	if err := rt.SetDispatchGroups(2); err != ErrClosed {
		t.Fatalf("set dispatch groups on closed runtime = %v, want ErrClosed", err)
	}
}

// TestGoroutinePeakBoundedUnderFlood is the bounded-pool gate: eight
// submitters flood an 8-shard × 4-group runtime (four replicas per model,
// every future awaited and released) while the process goroutine count is
// sampled. Batch execution runs on the per-model pools and each plane parks
// one sweep worker, so the peak stays O(replicas + planes + submitters); one
// goroutine per dispatch or per request would blow straight past the bound.
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
			Timeline:       &sim.WallTimeline{Speedup: 1000},
			QueueCap:       1 << 30,
			Shards:         8,
			DispatchGroups: 4,
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
		echoExec, RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: 200}, Shards: 8, DispatchGroups: 2})
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

// TestEngineSetGroupsValidation pins the dispatch-group bounds and the
// shard→group partition.
func TestEngineSetGroupsValidation(t *testing.T) {
	d := replicaDeployment(t, 1.0, 1)
	e := NewEngine(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500), 0)
	if err := e.SetGroups(0); err == nil {
		t.Fatal("zero groups should error")
	}
	if err := e.SetGroups(maxEngineGroups + 1); err == nil {
		t.Fatal("oversized group count should error")
	}
	if err := e.SetShards(8); err != nil {
		t.Fatal(err)
	}
	if err := e.SetGroups(3); err != nil {
		t.Fatal(err)
	}
	if got := e.GroupCount(); got != 3 {
		t.Fatalf("group count = %d, want 3", got)
	}
	// Shard s drains on group s mod 3.
	for g, want := range [][]int{{0, 3, 6}, {1, 4, 7}, {2, 5}} {
		got := e.groups[g].shards
		if len(got) != len(want) {
			t.Fatalf("group %d shards = %v, want %v", g, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("group %d shards = %v, want %v", g, got, want)
			}
		}
	}
	// More groups than shards: the extra planes idle harmlessly.
	if err := e.SetGroups(16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		e.Enqueue(0, Request{ID: uint64(i), Arrival: 0})
	}
	// Step past the SLO: single-shard groups have no steal siblings, so the
	// shallow tails dispatch on deadline pressure, not the full-batch rule.
	outs, err := e.Step(2 * d.Tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) == 0 {
		t.Fatal("no dispatch through 16 groups over 8 shards")
	}
	if got := e.GroupOf(12345); got < 0 || got >= 16 {
		t.Fatalf("GroupOf out of range: %d", got)
	}
}

package infer

import (
	"fmt"
	"sync"
	"testing"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// TestEngineBacklogs: the per-model demand signal tracks the queued share
// and the in-flight batch, and decays once the batch finishes.
func TestEngineBacklogs(t *testing.T) {
	d := replicaDeployment(t, 1.0, 1)
	rt, _ := handRuntime(t, d, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500))
	for i := 0; i < 40; i++ {
		rt.enqueue(Request{ID: uint64(i), Arrival: 0})
	}
	// No dispatch history: every model is assumed to serve the whole queue.
	for m, b := range rt.backlogs(0, rt.queueLen()) {
		if b.Queued != 40 || b.Inflight != 0 {
			t.Fatalf("model %d backlog before dispatch = %+v", m, b)
		}
	}
	outs, err := rt.decide(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || len(outs[0].Requests) != 16 {
		t.Fatalf("outs = %+v, want one 16-batch", outs)
	}
	for m, b := range rt.backlogs(0, rt.queueLen()) {
		// SyncAll dispatched all 16 to every model: share stays 1.
		if b.Queued != 24 || b.Inflight != 16 {
			t.Fatalf("model %d backlog mid-flight = %+v, want {24 16}", m, b)
		}
	}
	// Once every pass has returned and released its replica, as the runtime
	// does, nothing is in flight anymore.
	for i, m := range outs[0].Models {
		rt.release(m, outs[0].Replicas[i], outs[0].ModelFinish[i], outs[0].ModelFinish[i])
	}
	for m, b := range rt.backlogs(outs[0].Finish+1, rt.queueLen()) {
		if b.Inflight != 0 {
			t.Fatalf("model %d inflight after finish = %+v", m, b)
		}
	}
}

// TestShardedRuntimeFairnessRace hammers a runtime from concurrent goroutines
// (run under -race): every submission must be served exactly once — a
// starved request would never resolve and Wait would hang the test into its
// timeout — and the stats must balance.
func TestShardedRuntimeFairnessRace(t *testing.T) {
	d := replicaDeployment(t, 0.25, 2)
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(3), 500),
		echoExec, RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: 200}})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 8, 25
	const total = clients * perClient
	var wg sync.WaitGroup
	errs := make(chan error, total)
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
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Served != total {
		t.Fatalf("served = %d, want %d", st.Served, total)
	}
	if st.QueueLen != 0 {
		t.Fatalf("backlog left after serving everything: queue_len %d", st.QueueLen)
	}
	if len(st.ModelBacklogs) != 3 {
		t.Fatalf("model backlogs = %v, want one per model", st.ModelBacklogs)
	}
	rt.Close()
	if _, err := rt.Submit("late"); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// TestShardedRuntimeDeterministicEventLoop drives a runtime over the
// virtual-time EventLoop: the coalesced sweep is an ordinary timeline event,
// so the data plane replays deterministically and still groups requests into
// shared batches.
func TestShardedRuntimeDeterministicEventLoop(t *testing.T) {
	run := func() Stats {
		d := replicaDeployment(t, 0.5, 1)
		loop := sim.NewEventLoop()
		rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500),
			echoExec, RuntimeConfig{Timeline: loop})
		if err != nil {
			t.Fatal(err)
		}
		var futs []Future
		loop.Schedule(0.01, func() {
			for i := 0; i < 32; i++ {
				f, err := rt.Submit(i)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				futs = append(futs, f)
			}
		})
		loop.RunUntil(30)
		for i, f := range futs {
			if !resolved(f) {
				t.Fatalf("future %d unresolved", i)
			}
		}
		return rt.Stats()
	}
	st := run()
	if st.Served != 32 || st.QueueLen != 0 {
		t.Fatalf("served = %d queue = %d, want 32/0", st.Served, st.QueueLen)
	}
	if st.Dispatches >= 32 || st.Dispatches == 0 {
		t.Fatalf("dispatches = %d, want batching (0 < dispatches < 32)", st.Dispatches)
	}
	st2 := run()
	if st2.Served != st.Served || st2.Dispatches != st.Dispatches || st2.Decisions != st.Decisions {
		t.Fatalf("runtime not deterministic over the event loop: %+v vs %+v", st, st2)
	}
}

// TestShardedRuntimeQueueFullAndReshard: the queue cap holds against a burst
// on one instant, and every admitted future is served.
func TestShardedRuntimeQueueFullAndReshard(t *testing.T) {
	d := replicaDeployment(t, 0.5, 1)
	loop := sim.NewEventLoop()
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(3), 200),
		echoExec, RuntimeConfig{Timeline: loop, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	var futs []Future
	loop.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			f, err := rt.Submit(i)
			switch err {
			case nil:
				futs = append(futs, f)
			case ErrQueueFull:
				full++
			default:
				t.Errorf("submit: %v", err)
			}
		}
	})
	loop.RunUntil(10)
	if full != 6 {
		t.Fatalf("queue-full rejections = %d, want 6", full)
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	if st := rt.Stats(); st.Served != 4 || st.Dropped != 6 {
		t.Fatalf("stats = served %d dropped %d, want 4/6", st.Served, st.Dropped)
	}
	rt.Close()
}

// TestFutureModelsPerFutureCopy pins the batch-sharing bugfix: two requests
// served by the same batch must not share the Models() backing slice — a
// caller mutating its own result cannot corrupt its batch sibling's.
func TestFutureModelsPerFutureCopy(t *testing.T) {
	d := replicaDeployment(t, 0.5, 1)
	loop := sim.NewEventLoop()
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500),
		echoExec, RuntimeConfig{Timeline: loop})
	if err != nil {
		t.Fatal(err)
	}
	var a, b Future
	loop.Schedule(0.01, func() {
		a, _ = rt.Submit("a")
		b, _ = rt.Submit("b")
	})
	loop.RunUntil(30)
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(a.Models()) != 3 || len(b.Models()) != 3 {
		t.Fatalf("models = %v / %v, want the full ensemble on both", a.Models(), b.Models())
	}
	a.Models()[0] = "corrupted"
	if b.Models()[0] == "corrupted" {
		t.Fatal("batch siblings share the Models() backing slice")
	}
}

// TestArrivalBufferReused: a decision point's flush hands the drained
// arrival buffer back to the runtime, so the enqueue → flush cycle every
// Submit runs stops allocating once the two buffers exist.
func TestArrivalBufferReused(t *testing.T) {
	d := runtimeDeployment(t, 0.5)
	rt, _ := handRuntime(t, d, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200))
	popped := make([]Request, 0, 1)
	id := uint64(0)
	cycle := func() {
		rt.enqueue(Request{ID: id, Arrival: 1})
		id++
		rt.flushArrivals()
		popped = rt.q.PopAppend(1, popped[:0])
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("enqueue + flush allocates %v per request, want 0", allocs)
	}
}

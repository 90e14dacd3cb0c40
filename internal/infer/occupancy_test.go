package infer

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// latePass is one pass a lateBackend ran: its model, the batch's decision
// time and when the pass returned, in timeline seconds.
type latePass struct {
	model             int
	decided, returned float64
}

// lateBackend sleeps every pass for factor× the model's zoo profile at the
// pass's batch size on the task's wall-clock timeline, reports that as the
// observed latency, and records the pass.
type lateBackend struct {
	factor float64
	mu     sync.Mutex
	passes []latePass
}

func (b *lateBackend) Name() string { return "late" }
func (b *lateBackend) Execute(ctx context.Context, t ExecTask) ([]any, float64, error) {
	tl := t.Timeline.(sim.ConcurrentTimeline)
	p, err := zoo.Lookup(t.Model)
	if err != nil {
		return nil, 0, err
	}
	start := tl.Now()
	if err := tl.Sleep(ctx, b.factor*p.BatchLatency(len(t.IDs))); err != nil {
		return nil, 0, err
	}
	now := tl.Now()
	b.mu.Lock()
	b.passes = append(b.passes, latePass{t.ModelIndex, t.Decided, now})
	b.mu.Unlock()
	return nil, now - start, nil
}
func (b *lateBackend) Close() error { return nil }

// TestRuntimeHoldsReplicaUntilPassReturns floods a wall-clock runtime whose
// backend runs 3× its profile, one replica per model: no batch may be decided
// onto a model before the previous pass on its replica has returned, however
// early the plan said the replica would free.
func TestRuntimeHoldsReplicaUntilPassReturns(t *testing.T) {
	b := &lateBackend{factor: 3}
	rt := newWallRuntime(t, echoExec, RuntimeConfig{Backend: b})
	var (
		mu   sync.Mutex
		futs []Future
		wg   sync.WaitGroup
	)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				f, err := rt.Submit([]byte("q"))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				futs = append(futs, f)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	rt.Close()

	byModel := map[int][]latePass{}
	for _, p := range b.passes {
		byModel[p.model] = append(byModel[p.model], p)
	}
	for m, ps := range byModel {
		if len(ps) < 3 {
			t.Fatalf("model %d ran %d passes, want a backlog of several", m, len(ps))
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].decided < ps[j].decided })
		for k := 1; k < len(ps); k++ {
			if ps[k].decided < ps[k-1].returned {
				t.Fatalf("model %d: batch decided at %v before the previous pass returned at %v",
					m, ps[k].decided, ps[k-1].returned)
			}
		}
	}
}

// TestEventLoopRunsEachPassAtItsModelFinish drives a two-model ensemble of
// distinct latencies over the virtual-time loop: each model's pass runs at
// its own planned finish, which is when its replica frees, and the batch
// finalizes at the ensemble finish, when the slower pass returns.
func TestEventLoopRunsEachPassAtItsModelFinish(t *testing.T) {
	d, err := NewDeployment([]string{"inception_v3", "inception_resnet_v2"}, []int{1, 2, 4, 8, 16}, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Latency(0, 16) == d.Latency(1, 16) {
		t.Fatal("test needs two models of distinct latencies")
	}
	loop := sim.NewEventLoop()
	type pass struct{ at, finish, decided float64 }
	var passes []pass
	var finals []float64
	b := &passRecorder{fn: func(t ExecTask) {
		passes = append(passes, pass{loop.Now(), t.ProfiledFinish, t.Decided})
	}}
	combine := func(ids []uint64, _ []any, _ []string, _ [][]any) ([]any, error) {
		finals = append(finals, loop.Now())
		return make([]any, len(ids)), nil
	}
	rt, err := NewRuntime(d, &SyncAll{}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500),
		combine, RuntimeConfig{Timeline: loop, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		loop.Schedule(0.01+0.003*float64(i), func() {
			if _, err := rt.Submit(i); err != nil {
				t.Errorf("submit: %v", err)
			}
		})
	}
	loop.RunUntil(30)

	// Each batch's passes share its decision time; the batch finishes with
	// its slowest pass.
	finish := map[float64]float64{}
	distinct := 0
	for _, p := range passes {
		if math.Abs(p.at-p.finish) > 1e-9 {
			t.Fatalf("pass planned to finish at %v ran at %v", p.finish, p.at)
		}
		if f, ok := finish[p.decided]; ok && f != p.finish {
			distinct++
		}
		finish[p.decided] = max(finish[p.decided], p.finish)
	}
	if len(finals) == 0 || len(passes) != 2*len(finals) || distinct != len(finals) {
		t.Fatalf("%d passes, %d batches, %d with two distinct finishes", len(passes), len(finals), distinct)
	}
	want := make([]float64, 0, len(finish))
	for _, f := range finish {
		want = append(want, f)
	}
	slices.Sort(want)
	slices.Sort(finals)
	for i := range want {
		if math.Abs(finals[i]-want[i]) > 1e-9 {
			t.Fatalf("batch %d finalized at %v, want its ensemble finish %v", i, finals[i], want[i])
		}
	}
}

// passRecorder calls fn on every pass and returns at once with the profiled
// latency.
type passRecorder struct{ fn func(ExecTask) }

func (b *passRecorder) Name() string { return "recorder" }
func (b *passRecorder) Execute(_ context.Context, t ExecTask) ([]any, float64, error) {
	b.fn(t)
	return nil, t.ProfiledFinish - t.Decided, nil
}
func (b *passRecorder) Close() error { return nil }

// TestEngineStaleReleaseFreesNothing holds both replicas of every model past
// their plans, then checks that a pass returning to a slot that was dropped
// and regrown, or restarted, since its dispatch frees nothing: the slot's
// new batch keeps it.
func TestEngineStaleReleaseFreesNothing(t *testing.T) {
	d := replicaDeployment(t, 0.25, 2)
	rt, err := NewRuntime(d, &SyncAll{}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500),
		echoExec, RuntimeConfig{Timeline: sim.NewEventLoop()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var next uint64
	// dispatch queues n requests at now and runs a decision point, which
	// must place two full batches, one on each replica.
	// decide reuses its result slice, so dispatch returns a copy the test
	// may hold across later decision points.
	dispatch := func(now float64, n int) []*batchRun {
		t.Helper()
		for i := 0; i < n; i++ {
			if !rt.enqueue(handRequest(next, now)) {
				t.Fatal("enqueue refused")
			}
			next++
		}
		runs, err := rt.decide(now)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 2 || slices.ContainsFunc(runs[0].passes, func(p pass) bool { return p.rep == runs[1].passes[0].rep }) {
			t.Fatalf("want two batches on distinct replicas, got %d", len(runs))
		}
		return slices.Clone(runs)
	}
	// held checks at a time far past every plan that no model is free, and
	// that every model counts both held batches in flight.
	const later = 1000.0
	held := func(when string) {
		t.Helper()
		if st := rt.state(later); slices.Contains(st.FreeModels, true) {
			t.Fatalf("%s: a model is free while both its replicas are held: %v", when, st.FreeModels)
		}
		for m, b := range rt.backlogs(later, rt.queueLen()) {
			if b.Inflight != 32 {
				t.Fatalf("%s: model %d inflight %d, want the two held batches of 16", when, m, b.Inflight)
			}
		}
	}
	releaseAll := func(br *batchRun, now float64) {
		for _, p := range br.passes {
			rt.release(p.model, p.rep, p.finish, now)
		}
	}

	outs := dispatch(0, 32)
	held("after dispatch")
	// Shrink drops replica 1 and growth brings it back idle; one new batch
	// takes it and the returning pass of the dropped slot's batch must not
	// free it.
	first, dropped := outs[0], outs[1]
	if first.passes[0].rep != 0 {
		first, dropped = dropped, first
	}
	for m := range d.Profiles {
		if err := rt.SetReplicas(m, 1); err != nil {
			t.Fatal(err)
		}
		if err := rt.SetReplicas(m, 2); err != nil {
			t.Fatal(err)
		}
	}
	releaseAll(first, 1)
	outs = dispatch(2, 32)
	releaseAll(dropped, 3)
	held("after a stale release on a regrown slot")

	// Restarting every replica frees both; the passes of the batches they
	// ran return after the restarted slots took new batches.
	for m := range d.Profiles {
		for r := 0; r < 2; r++ {
			if err := rt.SetReplicaDown(m, r, true); err != nil {
				t.Fatal(err)
			}
			if err := rt.SetReplicaDown(m, r, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	restarted := outs
	outs = dispatch(4, 32)
	releaseAll(restarted[0], 5)
	releaseAll(restarted[1], 5)
	held("after a stale release on a restarted slot")

	// The live passes' own releases free the replicas.
	releaseAll(outs[0], 6)
	releaseAll(outs[1], 6)
	if st := rt.state(later); slices.Contains(st.FreeModels, false) {
		t.Fatalf("live releases left a model busy: %v", st.FreeModels)
	}
	if got := fmt.Sprint(rt.backlogs(later, rt.queueLen())); got != "[{0 0} {0 0} {0 0}]" {
		t.Fatalf("backlogs after release = %s", got)
	}
}

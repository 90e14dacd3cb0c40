package infer

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// state builds the runtime's policy view at time now for a test. The
// returned state is freshly allocated, its c(m,b) table copied out of the
// decision scratch, so the test may hold it across later decision points.
func (r *Runtime) state(now float64) *State {
	var v modelView
	r.observe(now, &v)
	st := r.stateAt(now, &v, new(State))
	st.LatencyTable = slices.Clone(st.LatencyTable)
	for m, row := range st.LatencyTable {
		st.LatencyTable[m] = slices.Clone(row)
	}
	return st
}

// hold is SyncAll that waits while on is set.
type hold struct {
	SyncAll
	on bool
}

func (p *hold) Decide(s *State) Action {
	if p.on {
		return Action{Wait: true}
	}
	return p.SyncAll.Decide(s)
}

// handRuntime wires a runtime over a virtual-time loop the test never runs:
// the test enqueues, decides and releases by hand, and nothing the runtime
// launches ever executes. Its policy is the returned hold: a test sets on
// around a control operation whose own decision point must not dispatch
// what the test would not see.
func handRuntime(tb testing.TB, d *Deployment, acc *ensemble.AccuracyTable) (*Runtime, *hold) {
	tb.Helper()
	p := &hold{SyncAll: SyncAll{D: d}}
	rt, err := NewRuntime(d, p, acc, echoExec, RuntimeConfig{Timeline: sim.NewEventLoop()})
	if err != nil {
		tb.Fatal(err)
	}
	return rt, p
}

// replicaDeployment builds the three-ConvNet ensemble with the given
// per-model replica count.
func replicaDeployment(tb testing.TB, tau float64, replicas int) *Deployment {
	tb.Helper()
	d, err := NewDeployment(
		[]string{"inception_v3", "inception_v4", "inception_resnet_v2"},
		[]int{1, 2, 4, 8, 16}, tau, 1)
	if err != nil {
		tb.Fatal(err)
	}
	d.Replicas = []int{replicas, replicas, replicas}
	return d
}

// TestEngineDispatchesAcrossReplicas: with two replicas per model, one
// decision point over a 32-deep queue dispatches two full batches back to
// back — the second onto each model's other replica.
func TestEngineDispatchesAcrossReplicas(t *testing.T) {
	d := replicaDeployment(t, 1.0, 2)
	rt, _ := handRuntime(t, d, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500))
	for i := 0; i < 32; i++ {
		rt.enqueue(Request{ID: uint64(i), Arrival: 0})
	}
	outs, err := rt.decide(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("dispatches = %d, want 2 (one per replica)", len(outs))
	}
	for i, out := range outs {
		if len(out.Requests) != 16 {
			t.Fatalf("dispatch %d batch = %d, want 16", i, len(out.Requests))
		}
		for m, rep := range out.Replicas {
			if rep != i {
				t.Fatalf("dispatch %d model %d on replica %d, want %d", i, m, rep, i)
			}
		}
	}
	// Both replicas busy: the model view reports busy until the earliest
	// replica frees.
	st := rt.state(0)
	for m, free := range st.FreeModels {
		if free {
			t.Fatalf("model %d free with both replicas occupied", m)
		}
		if st.BusyLeft[m] <= 0 {
			t.Fatalf("model %d busy-left = %v", m, st.BusyLeft[m])
		}
	}
}

// TestEngineReplicaDownExcludesFromDispatch: a model whose every replica is
// down stalls dispatch (SyncAll's barrier) until one recovers.
func TestEngineReplicaDownExcludesFromDispatch(t *testing.T) {
	d := replicaDeployment(t, 1.0, 2)
	rt, p := handRuntime(t, d, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500))
	if err := rt.SetReplicaDown(0, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetReplicaDown(0, 1, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		rt.enqueue(Request{ID: uint64(i), Arrival: 0})
	}
	outs, err := rt.decide(0)
	if err != nil || len(outs) != 0 {
		t.Fatalf("outs=%d err=%v, want no dispatch while model 0 has no live replica", len(outs), err)
	}
	st := rt.state(0)
	if st.FreeModels[0] || !math.IsInf(st.BusyLeft[0], 1) {
		t.Fatalf("dead model state free=%v busyLeft=%v", st.FreeModels[0], st.BusyLeft[0])
	}
	// Recovery runs a decision point of its own; the policy holds through
	// it, so the test's decide below sees the dispatch.
	p.on = true
	if err := rt.SetReplicaDown(0, 1, false); err != nil {
		t.Fatal(err)
	}
	p.on = false
	outs, err = rt.decide(0)
	if err != nil || len(outs) != 1 {
		t.Fatalf("outs=%d err=%v, want one dispatch after recovery", len(outs), err)
	}
	if outs[0].Replicas[0] != 1 {
		t.Fatalf("model 0 served by replica %d, want the recovered replica 1", outs[0].Replicas[0])
	}
	// Validation errors.
	if err := rt.SetReplicaDown(0, 9, true); err == nil {
		t.Fatal("out-of-range replica should error")
	}
	if err := rt.SetReplicas(0, 0); err == nil {
		t.Fatal("zero replicas should error")
	}
	if err := rt.SetReplicas(7, 1); err == nil {
		t.Fatal("out-of-range model should error")
	}
}

// replicaQPS drives the serving example's 200-client load through a Runtime
// over virtual time and returns the served throughput (requests per timeline
// second to the last batch completion). Deterministic: the EventLoop replays
// the same schedule for every replica count.
func replicaQPS(tb testing.TB, replicas int) float64 {
	const n = 200
	d := replicaDeployment(tb, 0.25, replicas)
	loop := sim.NewEventLoop()
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(7), 500),
		echoExec, RuntimeConfig{Timeline: loop})
	if err != nil {
		tb.Fatal(err)
	}
	arrivals := make([]float64, 0, n)
	futs := make([]Future, 0, n)
	for i := 0; i < n; i++ {
		at := 0.0005 * float64(i) // 200 clients over 0.1s, the example's burst
		loop.Schedule(at, func() {
			f, err := rt.Submit(len(futs))
			if err != nil {
				tb.Errorf("submit: %v", err)
				return
			}
			arrivals = append(arrivals, at)
			futs = append(futs, f)
		})
	}
	loop.RunUntil(60)
	st := rt.Stats()
	if st.Served != n {
		tb.Fatalf("served = %d, want %d", st.Served, n)
	}
	lastFinish := 0.0
	for i, f := range futs {
		if !resolved(f) {
			tb.Fatalf("future %d unresolved", i)
		}
		if fin := arrivals[i] + f.Latency(); fin > lastFinish {
			lastFinish = fin
		}
	}
	return float64(n) / lastFinish
}

// TestReplicaScalingThroughput is the tentpole's acceptance gate: four
// replicas per model must serve the 200-client load at ≥ 2.5× the
// single-replica throughput (near-linear horizontal scaling).
func TestReplicaScalingThroughput(t *testing.T) {
	q1 := replicaQPS(t, 1)
	q4 := replicaQPS(t, 4)
	t.Logf("throughput: 1 replica %.1f r/s, 4 replicas %.1f r/s (%.2fx)", q1, q4, q4/q1)
	if q4 < 2.5*q1 {
		t.Fatalf("4-replica throughput %.1f r/s is %.2fx the 1-replica %.1f r/s, want >= 2.5x", q4, q4/q1, q1)
	}
}

// BenchmarkReplicaScaling reports served QPS (virtual-time, deterministic)
// for the 200-client load at 1/2/4 replicas — the dispatch hot path's
// perf-regression gate (`make bench-smoke` runs it once).
func BenchmarkReplicaScaling(b *testing.B) {
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas-%d", replicas), func(b *testing.B) {
			qps := 0.0
			for i := 0; i < b.N; i++ {
				qps = replicaQPS(b, replicas)
			}
			b.ReportMetric(qps, "served-qps")
		})
	}
}

// TestRuntimeScaleConcurrent hammers a live runtime with wall-clock queries
// while another goroutine scales the replica pools up and down (run under
// -race): every future must resolve and every request be served exactly once.
func TestRuntimeScaleConcurrent(t *testing.T) {
	d := replicaDeployment(t, 0.25, 1)
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(3), 500),
		echoExec, RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: 200}})
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 4, 30
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
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
	// Scale every model 1→4→2→4→1 while the queries fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, n := range []int{4, 2, 4, 1} {
			for m := 0; m < 3; m++ {
				if err := rt.SetReplicas(m, n); err != nil {
					errs <- fmt.Errorf("scale model %d to %d: %w", m, n, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Served != clients*perClient {
		t.Fatalf("served = %d, want %d", st.Served, clients*perClient)
	}
	rt.Close()
}

// TestRuntimeStatsReplicasAndDrain: Stats must report the live replica
// counts and a positive drain estimate right after a burst completes.
func TestRuntimeStatsReplicasAndDrain(t *testing.T) {
	d := replicaDeployment(t, 0.5, 2)
	loop := sim.NewEventLoop()
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(5), 500),
		echoExec, RuntimeConfig{Timeline: loop})
	if err != nil {
		t.Fatal(err)
	}
	loop.Schedule(0.01, func() {
		for i := 0; i < 32; i++ {
			if _, err := rt.Submit(i); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
	})
	loop.RunUntil(3) // inside the drain window so recent completions count
	st := rt.Stats()
	if st.Served != 32 {
		t.Fatalf("served = %d, want 32", st.Served)
	}
	if want := []int{2, 2, 2}; len(st.Replicas) != 3 || st.Replicas[0] != want[0] || st.Replicas[1] != want[1] || st.Replicas[2] != want[2] {
		t.Fatalf("replicas = %v, want %v", st.Replicas, want)
	}
	if st.DrainRate <= 0 {
		t.Fatalf("drain rate = %v, want > 0 after serving a burst", st.DrainRate)
	}
	if err := rt.SetReplicas(1, 3); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().Replicas; got[1] != 3 {
		t.Fatalf("replicas after scale = %v, want model 1 at 3", got)
	}
	rt.Close()
	if err := rt.SetReplicas(0, 2); err != ErrClosed {
		t.Fatalf("scale after close = %v, want ErrClosed", err)
	}
}

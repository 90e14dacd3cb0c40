package infer

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// echoExec is a combiner that ignores the backend's predictions and returns
// each request's payload tagged with the serving subset.
func echoExec(ids []uint64, payloads []any, models []string, _ [][]any) ([]any, error) {
	out := make([]any, len(ids))
	for i := range ids {
		out[i] = fmt.Sprintf("%v@%d", payloads[i], len(models))
	}
	return out, nil
}

func runtimeDeployment(t *testing.T, tau float64) *Deployment {
	t.Helper()
	d, err := NewDeployment(
		[]string{"inception_v3", "inception_v4", "inception_resnet_v2"},
		[]int{1, 2, 4, 8, 16}, tau, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRuntimeDeterministicBatching drives the wall-clock Runtime over the
// virtual-time EventLoop: submissions are scheduled as events, so batching
// decisions replay deterministically and can be asserted exactly.
func TestRuntimeDeterministicBatching(t *testing.T) {
	d := runtimeDeployment(t, 0.5)
	loop := sim.NewEventLoop()
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500),
		echoExec, RuntimeConfig{Timeline: loop})
	if err != nil {
		t.Fatal(err)
	}

	const n = 40
	futs := make([]Future, 0, n)
	// 16 requests land together at t=0.01, the rest trickle in.
	loop.Schedule(0.01, func() {
		for i := 0; i < 16; i++ {
			f, err := rt.Submit(fmt.Sprintf("req-%d", len(futs)))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			futs = append(futs, f)
		}
	})
	for i := 16; i < n; i++ {
		loop.Schedule(0.02+0.005*float64(i), func() {
			f, err := rt.Submit(fmt.Sprintf("req-%d", len(futs)))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			futs = append(futs, f)
		})
	}
	loop.RunUntil(30)

	st := rt.Stats()
	if st.Served != n || st.QueueLen != 0 {
		t.Fatalf("served = %d queue = %d, want %d/0", st.Served, st.QueueLen, n)
	}
	if st.Dispatches >= n {
		t.Fatalf("dispatches = %d, want < %d (requests must share batches)", st.Dispatches, n)
	}
	if st.Dispatches == 0 || st.Decisions < st.Dispatches {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	if st.P50Latency <= 0 || st.P99Latency < st.P50Latency {
		t.Fatalf("latency percentiles: %+v", st)
	}
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		want := fmt.Sprintf("req-%d@3", i)
		if res != want {
			t.Fatalf("future %d = %v, want %s", i, res, want)
		}
		if len(f.Models()) != 3 {
			t.Fatalf("future %d served by %v, want full ensemble", i, f.Models())
		}
		if f.Latency() <= 0 {
			t.Fatalf("future %d latency %v", i, f.Latency())
		}
	}
	// Rerun: identical submission schedule must reproduce identical stats.
	loop2 := sim.NewEventLoop()
	rt2, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500),
		echoExec, RuntimeConfig{Timeline: loop2})
	if err != nil {
		t.Fatal(err)
	}
	loop2.Schedule(0.01, func() {
		for i := 0; i < 16; i++ {
			_, _ = rt2.Submit("x")
		}
	})
	for i := 16; i < n; i++ {
		loop2.Schedule(0.02+0.005*float64(i), func() { _, _ = rt2.Submit("x") })
	}
	loop2.RunUntil(30)
	st2 := rt2.Stats()
	if st2.Served != st.Served || st2.Dispatches != st.Dispatches || st2.Decisions != st.Decisions {
		t.Fatalf("runtime not deterministic over the event loop: %+v vs %+v", st, st2)
	}
}

// TestRuntimeConcurrentWallClock hammers one deployment from many
// goroutines through the real wall-clock timeline (run under -race): every
// caller gets its result, and the policy groups callers into shared batches.
func TestRuntimeConcurrentWallClock(t *testing.T) {
	d := runtimeDeployment(t, 0.25)
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(2), 500),
		echoExec, RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: 50}})
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := rt.Submit(fmt.Sprintf("c-%d", i))
			if err != nil {
				errs <- err
				return
			}
			res, err := f.Wait()
			if err != nil {
				errs <- err
				return
			}
			if want := fmt.Sprintf("c-%d@3", i); res != want {
				errs <- fmt.Errorf("got %v, want %s", res, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := rt.Stats()
	if st.Served != n {
		t.Fatalf("served = %d, want %d", st.Served, n)
	}
	if st.Dispatches >= st.Served {
		t.Fatalf("dispatches = %d for %d served: concurrent callers were not batched", st.Dispatches, st.Served)
	}
	rt.Close()
	if _, err := rt.Submit("late"); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// TestRuntimePoisonsOnPolicyError: an invalid policy action must fail every
// queued future with the policy error AND close the runtime, so later
// submissions cannot batch with orphaned queue entries — over the
// virtual-time loop and over the wall clock.
func TestRuntimePoisonsOnPolicyError(t *testing.T) {
	const policyErr = "not a candidate" // badPolicy's batch 3 is off the ladder
	cases := []struct {
		name string
		cfg  func() RuntimeConfig
		// submit queues requests until the runtime is poisoned and returns
		// the admitted futures.
		submit func(t *testing.T, rt *Runtime, cfg RuntimeConfig) []Future
	}{
		{
			name: "1 shard, event loop",
			cfg:  func() RuntimeConfig { return RuntimeConfig{Timeline: sim.NewEventLoop()} },
			submit: func(t *testing.T, rt *Runtime, cfg RuntimeConfig) []Future {
				loop := cfg.Timeline.(*sim.EventLoop)
				var futs []Future
				loop.Schedule(0, func() {
					// All four are queued before the coalesced sweep, a
					// zero-delay event at this instant, decides anything.
					for i := 0; i < 4; i++ {
						f, err := rt.Submit(fmt.Sprintf("doomed-%d", i))
						if err != nil {
							t.Errorf("submit %d before the sweep: %v", i, err)
							return
						}
						futs = append(futs, f)
					}
				})
				loop.RunUntil(5)
				return futs
			},
		},
		{
			name: "wall clock",
			cfg: func() RuntimeConfig {
				return RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: 200}}
			},
			submit: func(t *testing.T, rt *Runtime, _ RuntimeConfig) []Future {
				var mu sync.Mutex
				var futs []Future
				var wg sync.WaitGroup
				for s := 0; s < 4; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						for i := 0; ; i++ {
							f, err := rt.Submit(fmt.Sprintf("doomed-%d-%d", s, i))
							if err != nil {
								return // poisoned
							}
							mu.Lock()
							futs = append(futs, f)
							mu.Unlock()
						}
					}(s)
				}
				wg.Wait()
				return futs
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := runtimeDeployment(t, 0.5)
			var combined atomic.Int64
			combine := func(ids []uint64, payloads []any, models []string, preds [][]any) ([]any, error) {
				combined.Add(1)
				return echoExec(ids, payloads, models, preds)
			}
			cfg := tc.cfg()
			rt, err := NewRuntime(d, &badPolicy{act: Action{Batch: 3, Models: []int{0}}},
				ensemble.NewAccuracyTable(zoo.NewPredictor(4), 200), combine, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			futs := tc.submit(t, rt, cfg)
			if len(futs) == 0 {
				t.Fatal("no submission was admitted before the poison")
			}
			for i, f := range futs {
				select {
				case <-waitDone(f):
				case <-time.After(5 * time.Second):
					t.Fatalf("future %d never resolved", i)
				}
				res, err := f.Wait()
				if err == nil || !strings.Contains(err.Error(), policyErr) || res != nil {
					t.Fatalf("future %d = %v, %v; want the policy error", i, res, err)
				}
				f.Release() // panics unless resolved
			}
			// Exactly once: nothing reached a batch, and no request is left in
			// the queue for a second resolution.
			if n := combined.Load(); n != 0 {
				t.Fatalf("combiner ran %d times on a poisoned runtime", n)
			}
			if st := rt.Stats(); st.Served != 0 || st.Dispatches != 0 || st.QueueLen != 0 {
				t.Fatalf("stats = served %d dispatches %d queue %d, want 0/0/0", st.Served, st.Dispatches, st.QueueLen)
			}
			if _, err := rt.Submit("after"); err == nil || !strings.Contains(err.Error(), policyErr) {
				t.Fatalf("poisoned runtime Submit err = %v, want the policy error", err)
			}
		})
	}
}

// TestSubmitRacesClose pins the close path (run under -race): eight
// submitters flood a wall-clock runtime until Submit refuses, while the
// runtime closes under them — by Close, or by a policy error poisoning it at
// its first decision point. Every admitted future resolves exactly once
// (either served through the combiner or failed, never both), every refused
// Submit reports why the runtime closed, and no request is left queued.
func TestSubmitRacesClose(t *testing.T) {
	const policyErr = "not a candidate"
	cases := []struct {
		name    string
		policy  func(d *Deployment) Policy
		close   func(rt *Runtime)
		refused func(err error) bool
	}{
		{
			name:   "close",
			policy: func(d *Deployment) Policy { return &SyncAll{D: d} },
			close: func(rt *Runtime) {
				time.Sleep(5 * time.Millisecond)
				rt.Close()
			},
			refused: func(err error) bool { return errors.Is(err, ErrClosed) },
		},
		{
			name:    "poison",
			policy:  func(*Deployment) Policy { return &badPolicy{act: Action{Batch: 3, Models: []int{0}}} },
			close:   func(*Runtime) {},
			refused: func(err error) bool { return err != nil && strings.Contains(err.Error(), policyErr) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := replicaDeployment(t, 0.25, 2)
			var mu sync.Mutex
			combined := map[any]bool{}
			combine := func(ids []uint64, payloads []any, models []string, preds [][]any) ([]any, error) {
				mu.Lock()
				for _, p := range payloads {
					combined[p] = true
				}
				mu.Unlock()
				return echoExec(ids, payloads, models, preds)
			}
			rt, err := NewRuntime(d, tc.policy(d), ensemble.NewAccuracyTable(zoo.NewPredictor(2), 200), combine,
				RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: 200}, QueueCap: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()

			const submitters = 8
			type admitted struct {
				payload string
				f       Future
			}
			accepted := make([][]admitted, submitters)
			var wg sync.WaitGroup
			for s := range accepted {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; ; i++ {
						p := fmt.Sprintf("s%d-%d", s, i)
						f, err := rt.Submit(p)
						if err != nil {
							if !tc.refused(err) {
								t.Errorf("refused Submit err = %v", err)
							}
							return
						}
						accepted[s] = append(accepted[s], admitted{p, f})
					}
				}(s)
			}
			tc.close(rt)
			wg.Wait()
			rt.Close()

			served, failed := 0, 0
			for _, as := range accepted {
				for _, a := range as {
					select {
					case <-waitDone(a.f):
					case <-time.After(5 * time.Second):
						t.Fatalf("future %s never resolved", a.payload)
					}
					res, err := a.f.Wait()
					mu.Lock()
					wasCombined := combined[a.payload]
					mu.Unlock()
					switch {
					case err == nil && res == fmt.Sprintf("%s@3", a.payload) && wasCombined:
						served++
					case err != nil && res == nil && !wasCombined && tc.refused(err):
						failed++
					default:
						t.Fatalf("future %s = %v, %v (combined %v): resolved twice or wrongly", a.payload, res, err, wasCombined)
					}
					a.f.Release()
				}
			}
			if failed == 0 {
				t.Fatalf("no admitted future was failed by the close (served %d)", served)
			}
			if st := rt.Stats(); st.QueueLen != 0 {
				t.Fatalf("queue_len after close = %d, want 0", st.QueueLen)
			}
		})
	}
}

// TestRuntimeQueueFull surfaces the paper's drop behaviour as ErrQueueFull.
func TestRuntimeQueueFull(t *testing.T) {
	d := runtimeDeployment(t, 0.5)
	loop := sim.NewEventLoop()
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(3), 200),
		echoExec, RuntimeConfig{Timeline: loop, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	loop.Schedule(0, func() {
		// The first submission dispatches alone only after its deadline
		// nears, so the next ones pile up in the 4-slot queue.
		for i := 0; i < 10; i++ {
			if _, err := rt.Submit(i); err == ErrQueueFull {
				full++
			} else if err != nil {
				t.Errorf("submit: %v", err)
			}
		}
	})
	loop.RunUntil(10)
	if full == 0 {
		t.Fatal("bounded queue never reported ErrQueueFull")
	}
	if st := rt.Stats(); st.Dropped != full {
		t.Fatalf("dropped = %d, want %d", st.Dropped, full)
	}
}

// TestRuntimeLiveReconfiguration swaps the policy, SLO and queue cap on a
// runtime with queued work (virtual time, deterministic): queued futures
// survive the policy swap and are served by the new scheduler, and a shrunk
// queue cap rejects new arrivals while keeping the backlog.
func TestRuntimeLiveReconfiguration(t *testing.T) {
	d := runtimeDeployment(t, 0.5)
	loop := sim.NewEventLoop()
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500),
		echoExec, RuntimeConfig{Timeline: loop, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.PolicyName(); got != "greedy-sync" {
		t.Fatalf("policy = %q", got)
	}

	var futs []Future
	loop.Schedule(0.01, func() {
		// 3 queued requests: below the deadline-pressure threshold, so the
		// sync policy waits.
		for i := 0; i < 3; i++ {
			f, err := rt.Submit(fmt.Sprintf("pre-%d", i))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			futs = append(futs, f)
		}
	})
	loop.Schedule(0.02, func() {
		// Shrink the queue below the backlog: queued requests stay, new
		// arrivals bounce.
		if err := rt.SetQueueCap(2); err != nil {
			t.Errorf("set queue cap: %v", err)
		}
		if _, err := rt.Submit("overflow"); err != ErrQueueFull {
			t.Errorf("submit into shrunk queue err = %v, want ErrQueueFull", err)
		}
		// Swap to the async policy and loosen the SLO mid-backlog.
		if err := rt.SetPolicy(&AsyncEach{D: d}); err != nil {
			t.Errorf("set policy: %v", err)
		}
		if err := rt.SetSLO(1.0); err != nil {
			t.Errorf("set slo: %v", err)
		}
	})
	loop.RunUntil(30)

	if got := rt.PolicyName(); got != "greedy-async" {
		t.Fatalf("policy after swap = %q", got)
	}
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		// AsyncEach serves one model per batch — proof the queued requests
		// were decided by the swapped-in policy, not the sync ensemble.
		if res != fmt.Sprintf("pre-%d@1", i) {
			t.Fatalf("future %d = %v, want single-model serving", i, res)
		}
	}
	st := rt.Stats()
	if st.Served != 3 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want 3 served 1 dropped", st)
	}

	// Validation.
	if err := rt.SetPolicy(nil); err == nil {
		t.Fatal("nil policy should error")
	}
	if err := rt.SetSLO(0); err == nil {
		t.Fatal("zero SLO should error")
	}
	rt.Close()
	if err := rt.SetPolicy(&SyncAll{D: d}); err != ErrClosed {
		t.Fatalf("set policy on closed runtime err = %v", err)
	}
}

// TestControlOperations drives every control operation through its one
// path: on a closed runtime each returns ErrClosed, on a runtime a policy
// error poisoned each returns the poisoning error, and each operation that
// re-runs the decision point dispatches a standing backlog at once, with no
// new Submit.
func TestControlOperations(t *testing.T) {
	newRT := func(t *testing.T, tau float64, p func(*Deployment) Policy) (*Runtime, *sim.EventLoop, *Deployment) {
		t.Helper()
		d, err := NewDeployment([]string{"inception_v3"}, singleB, tau, 1)
		if err != nil {
			t.Fatal(err)
		}
		loop := sim.NewEventLoop()
		rt, err := NewRuntime(d, p(d), ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200),
			echoExec, RuntimeConfig{Timeline: loop})
		if err != nil {
			t.Fatal(err)
		}
		return rt, loop, d
	}
	syncAll := func(d *Deployment) Policy { return &SyncAll{D: d} }
	ops := []struct {
		name string
		op   func(*Runtime, *Deployment) error
	}{
		{"SetPolicy", func(rt *Runtime, d *Deployment) error { return rt.SetPolicy(&SyncAll{D: d}) }},
		{"SetSLO", func(rt *Runtime, _ *Deployment) error { return rt.SetSLO(0.01) }},
		{"SetQueueCap", func(rt *Runtime, _ *Deployment) error { return rt.SetQueueCap(64) }},
		{"SetReplicas", func(rt *Runtime, _ *Deployment) error { return rt.SetReplicas(0, 2) }},
		{"AddReplica", func(rt *Runtime, _ *Deployment) error { _, err := rt.AddReplica(0); return err }},
		{"SetReplicaDown", func(rt *Runtime, _ *Deployment) error { return rt.SetReplicaDown(0, 0, false) }},
		{"SetBackend", func(rt *Runtime, _ *Deployment) error { return rt.SetBackend(&SimBackend{}, echoExec) }},
	}
	for _, tc := range ops {
		t.Run("closed/"+tc.name, func(t *testing.T) {
			rt, _, d := newRT(t, 0.56, syncAll)
			rt.Close()
			if err := tc.op(rt, d); !errors.Is(err, ErrClosed) {
				t.Fatalf("err = %v, want ErrClosed", err)
			}
		})
		t.Run("poisoned/"+tc.name, func(t *testing.T) {
			rt, loop, d := newRT(t, 0.56, func(*Deployment) Policy {
				return &badPolicy{act: Action{Batch: 3, Models: []int{0}}}
			})
			defer rt.Close()
			if _, err := rt.Submit("doomed"); err != nil {
				t.Fatal(err)
			}
			loop.RunUntil(1)
			_, poison := rt.Submit("after")
			if poison == nil || poison == ErrClosed {
				t.Fatalf("Submit after the poison = %v, want the policy error", poison)
			}
			if err := tc.op(rt, d); !errors.Is(err, poison) {
				t.Fatalf("err = %v, want the poisoning error %v", err, poison)
			}
		})
	}

	maxB := singleB[len(singleB)-1]
	reruns := []struct {
		name   string
		tau    float64
		policy func(*Deployment) Policy
		// setup runs before the backlog arrives.
		setup   func(*Runtime) error
		backlog int
		op      func(*Runtime, *Deployment) error
	}{
		// One full batch takes the only replica; the second waits for it
		// until the pool grows.
		{"SetReplicas", 0.56, syncAll, nil, 2 * maxB, func(rt *Runtime, _ *Deployment) error { return rt.SetReplicas(0, 2) }},
		// The only replica is down, so nothing dispatches until it recovers.
		{"SetReplicaDown", 0.56, syncAll, func(rt *Runtime) error { return rt.SetReplicaDown(0, 0, true) }, maxB, func(rt *Runtime, _ *Deployment) error { return rt.SetReplicaDown(0, 0, false) }},
		// The held policy waits for ever; SyncAll dispatches at once.
		{"SetPolicy", 0.56, func(d *Deployment) Policy { return &hold{SyncAll: SyncAll{D: d}, on: true} }, nil, maxB, func(rt *Runtime, d *Deployment) error { return rt.SetPolicy(&SyncAll{D: d}) }},
		// Algorithm 3 waits on a half batch under a 100-s SLO, and flushes
		// it under a 10-ms one.
		{"SetSLO", 100, syncAll, nil, maxB / 2, func(rt *Runtime, _ *Deployment) error { return rt.SetSLO(0.01) }},
	}
	for _, tc := range reruns {
		t.Run("rerun/"+tc.name, func(t *testing.T) {
			rt, loop, d := newRT(t, tc.tau, tc.policy)
			if tc.setup != nil {
				if err := tc.setup(rt); err != nil {
					t.Fatal(err)
				}
			}
			futs := make([]Future, 0, tc.backlog)
			for i := 0; i < tc.backlog; i++ {
				f, err := rt.Submit(i)
				if err != nil {
					t.Fatal(err)
				}
				futs = append(futs, f)
			}
			loop.RunUntil(0) // the submissions' sweep
			before := rt.Stats()
			if before.QueueLen == 0 {
				t.Fatalf("no standing backlog: %d dispatches, queue empty", before.Dispatches)
			}
			if err := tc.op(rt, d); err != nil {
				t.Fatal(err)
			}
			if after := rt.Stats(); after.Dispatches <= before.Dispatches || after.QueueLen != 0 {
				t.Fatalf("after %s: dispatches %d → %d, queue %d → %d; want the backlog dispatched",
					tc.name, before.Dispatches, after.Dispatches, before.QueueLen, after.QueueLen)
			}
			loop.RunUntil(1000)
			for i, f := range futs {
				if _, err := f.Wait(); err != nil {
					t.Fatalf("future %d: %v", i, err)
				}
			}
			rt.Close()
		})
	}
}

package infer

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// lateTimeline is an EventLoop whose pass timers all wake lag late. Every
// batch's passes run from a timer armed for the planned finish, so each
// batch — and the finalize that reads the clock — completes lag after the
// plan: a backend slower than its profile, in deterministic virtual time.
// The runtime's deadline wake keeps its instant, so dispatches are on time.
type lateTimeline struct {
	*sim.EventLoop
	lag float64
}

// deadlineWakePC identifies the runtime's cached deadline-wake callback.
var deadlineWakePC = reflect.ValueOf((&Runtime{}).scheduleSweep).Pointer()

func (l *lateTimeline) AfterFunc(d float64, fn func()) {
	if d > 0 && reflect.ValueOf(fn).Pointer() != deadlineWakePC {
		d += l.lag
	}
	l.EventLoop.AfterFunc(d, fn)
}

// fixedDelta pins the policy's δ at the floor, whatever the controller says:
// the runtime as it was before δ adapted.
type fixedDelta struct {
	Policy
	delta float64
}

func (p fixedDelta) Decide(s *State) Action {
	s.Delta = p.delta
	return p.Policy.Decide(s)
}

// submitAt schedules one Submit per arrival time on the loop.
func submitAt(t *testing.T, loop *sim.EventLoop, rt *Runtime, times []float64) {
	t.Helper()
	for _, at := range times {
		loop.Schedule(at, func() {
			if _, err := rt.Submit("x"); err != nil && err != ErrQueueFull {
				t.Errorf("submit at %v: %v", at, err)
			}
		})
	}
}

// poissonArrivals draws arrival times at rate per second over [from, to).
func poissonArrivals(seed int64, rate, from, to float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	var out []float64
	for at := from + rng.ExpFloat64()/rate; at < to; at += rng.ExpFloat64() / rate {
		out = append(out, at)
	}
	return out
}

// spacedArrivals is one arrival every gap seconds over [from, to): each
// request batches alone and dispatches on its deadline.
func spacedArrivals(gap, from, to float64) []float64 {
	var out []float64
	for at := from; at < to; at += gap {
		out = append(out, at)
	}
	return out
}

func newBackoffRuntime(t *testing.T, d *Deployment, p Policy, tl sim.Timeline, queueCap int) *Runtime {
	t.Helper()
	rt, err := NewRuntime(d, p, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200), echoExec,
		RuntimeConfig{Timeline: tl, QueueCap: queueCap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestBackoffStaysAtFloorWithoutLateness: when no batch finishes past τ — the
// plan is the clock and the plan meets τ — δ never leaves BackoffDelta, bit
// for bit, so a virtual-time runtime schedules exactly as with a constant δ.
func TestBackoffStaysAtFloorWithoutLateness(t *testing.T) {
	d := runtimeDeployment(t, 0.5)
	loop := sim.NewEventLoop()
	rt := newBackoffRuntime(t, d, &SyncAll{}, loop, 0)
	arrivals := append(spacedArrivals(0.6, 0.01, 30), poissonArrivals(1, 8, 30, 90)...)
	submitAt(t, loop, rt, arrivals)
	loop.RunUntil(100)
	st := rt.Stats()
	if st.Served != len(arrivals) || st.Overdue != 0 {
		t.Fatalf("served %d of %d, overdue %d: the workload must meet τ on plan", st.Served, len(arrivals), st.Overdue)
	}
	if st.LateBatches != 0 || math.Float64bits(st.BackoffDelta) != math.Float64bits(d.BackoffDelta) {
		t.Fatalf("late batches %d, δ = %v: want 0 and exactly BackoffDelta %v", st.LateBatches, st.BackoffDelta, d.BackoffDelta)
	}
}

// TestBackoffAbsorbsConstantLateness: every batch finishes 0.2τ after its
// plan. A fixed δ = 0.1τ leaves every deadline-dispatched batch late; the
// controller raises δ until late batches are rare and settles inside
// [0.25τ, 0.4τ].
func TestBackoffAbsorbsConstantLateness(t *testing.T) {
	const tau, lag = 0.5, 0.1
	arrivals := poissonArrivals(2, 20, 0.01, 120)

	run := func(fixed bool) (mid, end Stats, d *Deployment) {
		d = runtimeDeployment(t, tau)
		var p Policy = &SyncAll{}
		if fixed {
			p = fixedDelta{Policy: p, delta: d.BackoffDelta}
		}
		loop := sim.NewEventLoop()
		rt := newBackoffRuntime(t, d, p, &lateTimeline{EventLoop: loop, lag: lag}, 0)
		submitAt(t, loop, rt, arrivals)
		loop.RunUntil(60)
		mid = rt.Stats()
		loop.RunUntil(200)
		end = rt.Stats()
		if end.Served != len(arrivals) {
			t.Fatalf("served %d of %d", end.Served, len(arrivals))
		}
		return mid, end, d
	}

	_, fixedEnd, _ := run(true)
	if fixedEnd.LateBatches != uint64(fixedEnd.Dispatches) {
		t.Fatalf("fixed δ: %d of %d batches late, want all", fixedEnd.LateBatches, fixedEnd.Dispatches)
	}

	mid, end, d := run(false)
	t.Logf("fixed δ: %d of %d batches late; adaptive: δ = %.3fτ, %d of %d late after t=60",
		fixedEnd.LateBatches, fixedEnd.Dispatches, end.BackoffDelta/tau,
		end.LateBatches-mid.LateBatches, end.Dispatches-mid.Dispatches)
	if end.BackoffDelta < 0.25*tau || end.BackoffDelta > backoffCap*tau {
		t.Fatalf("δ = %.4f (%.3fτ), want within [0.25τ, 0.4τ]", end.BackoffDelta, end.BackoffDelta/tau)
	}
	late := end.LateBatches - mid.LateBatches
	batches := end.Dispatches - mid.Dispatches
	if share := float64(late) / float64(batches); share > 0.10 {
		t.Fatalf("after convergence %d of %d batches late (%.3f), want ≤ 0.10", late, batches, share)
	}
	if d.BackoffDelta != 0.1*tau {
		t.Fatalf("the controller moved the deployment's floor to %v", d.BackoffDelta)
	}
}

// overload drives the runtime far past capacity until every batch finishes
// late, then returns δ; stops is when the overload's last arrival lands.
func overload(t *testing.T, loop *sim.EventLoop, rt *Runtime, from, stops float64) float64 {
	t.Helper()
	submitAt(t, loop, rt, poissonArrivals(3, 400, from, stops))
	loop.RunUntil(stops + 5)
	st := rt.Stats()
	if st.LateBatches == 0 || st.QueueLen != 0 {
		t.Fatalf("overload left %d late batches, queue %d", st.LateBatches, st.QueueLen)
	}
	return st.BackoffDelta
}

// TestBackoffCapsUnderOverloadAndDecays: a queue that only grows makes every
// batch late, so δ climbs to its 0.4τ ceiling and stops there; once load is
// light again, on-time batches walk it back down to exactly BackoffDelta.
func TestBackoffCapsUnderOverloadAndDecays(t *testing.T) {
	const tau = 0.5
	d := runtimeDeployment(t, tau)
	loop := sim.NewEventLoop()
	rt := newBackoffRuntime(t, d, &SyncAll{}, loop, 64)
	if got := overload(t, loop, rt, 0.01, 10); got != backoffCap*tau {
		t.Fatalf("δ under overload = %v, want the cap %v", got, backoffCap*tau)
	}
	// (0.4 − 0.1)τ at 0.0005τ per on-time batch is 600 batches.
	before := rt.Stats()
	submitAt(t, loop, rt, spacedArrivals(0.6, 20, 20+0.6*700))
	loop.RunUntil(20 + 0.6*700 + 5)
	st := rt.Stats()
	if st.LateBatches != before.LateBatches {
		t.Fatalf("light load finished %d batches late", st.LateBatches-before.LateBatches)
	}
	if st.BackoffDelta != d.BackoffDelta {
		t.Fatalf("δ after %d on-time batches = %v, want the floor %v", st.Dispatches-before.Dispatches, st.BackoffDelta, d.BackoffDelta)
	}
}

// TestSetSLOResetsBackoff: an SLO change restarts δ at 0.1 of the new τ, and
// later batches are judged against the new τ.
func TestSetSLOResetsBackoff(t *testing.T) {
	const tau = 0.5
	d := runtimeDeployment(t, tau)
	loop := sim.NewEventLoop()
	rt := newBackoffRuntime(t, d, &SyncAll{}, loop, 64)
	if got := overload(t, loop, rt, 0.01, 10); got != backoffCap*tau {
		t.Fatalf("δ under overload = %v, want the cap %v", got, backoffCap*tau)
	}
	if err := rt.SetSLO(2 * tau); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.BackoffDelta != 0.1*(2*tau) {
		t.Fatalf("δ after SetSLO(%v) = %v, want %v", 2*tau, st.BackoffDelta, 0.1*(2*tau))
	}
	// One batch that would be late against the old τ, on time against the
	// new one: δ stays at the new floor.
	before := rt.Stats().LateBatches
	submitAt(t, loop, rt, []float64{20})
	loop.RunUntil(25)
	if st := rt.Stats(); st.LateBatches != before || st.BackoffDelta != 0.1*(2*tau) {
		t.Fatalf("after one on-time batch: late %d → %d, δ = %v", before, st.LateBatches, st.BackoffDelta)
	}
}

// TestBackoffConcurrentFinalizes races the controller (run under -race): eight
// submitters feed replicated models that finalize batches on pool goroutines
// while decision points read δ, Stats scrapes it, and the SLO changes mid-run. Every request resolves, and δ ends inside the bounds of
// the final τ.
func TestBackoffConcurrentFinalizes(t *testing.T) {
	d := runtimeDeployment(t, 0.25)
	d.Replicas = []int{3, 3, 3}
	rt, err := NewRuntime(d, &AsyncEach{}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200), echoExec,
		RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: 50}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const submitters, each = 8, 150
	var wg sync.WaitGroup
	errs := make(chan error, submitters*each+1)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f, err := rt.Submit(i)
				if err != nil {
					errs <- err
					return
				}
				if _, err := f.Wait(); err != nil {
					errs <- err
				}
				f.Release()
			}
		}()
	}
	const newTau = 0.2
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	changed := false
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := rt.Stats(); !changed && st.Served >= submitters*each/2 {
				changed = true
				if err := rt.SetSLO(newTau); err != nil {
					errs <- err
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapes.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := rt.Stats()
	if !changed || st.Served != submitters*each {
		t.Fatalf("SLO changed: %v; served %d, want %d", changed, st.Served, submitters*each)
	}
	// The bounds as the runtime computes them, in float64 arithmetic.
	tau := newTau
	if st.BackoffDelta < 0.1*tau || st.BackoffDelta > backoffCap*tau {
		t.Fatalf("δ = %v outside [0.1τ, 0.4τ] of the final τ %v", st.BackoffDelta, tau)
	}
	if st.LateBatches > uint64(st.Dispatches) {
		t.Fatalf("late batches %d > dispatches %d", st.LateBatches, st.Dispatches)
	}
}

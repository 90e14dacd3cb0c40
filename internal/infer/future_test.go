package infer

import (
	"context"
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

// TestFuturePoolStress hammers the pooled completion pipeline under -race:
// N submitters submit identity-carrying payloads, await them, verify the
// result echoes their own payload (a recycled slot must never leak another
// request's result across the generation boundary), and release — while a
// control goroutine rebounds the queue, resizes a replica pool and swaps the
// policy live, exercising every path that moves futures between the queue
// and batches.
func TestFuturePoolStress(t *testing.T) {
	d := replicaDeployment(t, 0.25, 4)
	rt, err := NewRuntime(d, &SyncAll{D: d},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200), echoExec,
		RuntimeConfig{
			Timeline: &sim.WallTimeline{Speedup: 2000},
			QueueCap: 1 << 20,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const submitters = 8
	const perSub = 400
	stop := make(chan struct{})
	var ctlWG sync.WaitGroup
	ctlWG.Add(1)
	go func() {
		// Live reconfiguration racing the submit/await/release storm.
		defer ctlWG.Done()
		// The queue cap never drops below the 8 submitters' in-flight
		// requests, so no Submit is refused.
		capTo := []int{64, 1 << 20, 16, 1 << 20}
		replicasTo := []int{2, 4, 1, 4}
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := rt.SetQueueCap(capTo[i%len(capTo)]); err != nil && err != ErrClosed {
				t.Errorf("SetQueueCap: %v", err)
				return
			}
			if err := rt.SetReplicas(i%3, replicasTo[i%len(replicasTo)]); err != nil && err != ErrClosed {
				t.Errorf("SetReplicas: %v", err)
				return
			}
			var p Policy
			if i%2 == 0 {
				p = &AsyncEach{D: d}
			} else {
				p = &SyncAll{D: d}
			}
			if err := rt.SetPolicy(p); err != nil && err != ErrClosed {
				t.Errorf("SetPolicy: %v", err)
				return
			}
			i++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				want := fmt.Sprintf("g%d-i%d", s, i)
				f, err := rt.Submit(want)
				if err != nil {
					t.Errorf("submit %s: %v", want, err)
					return
				}
				res, err := f.Wait()
				if err != nil {
					t.Errorf("wait %s: %v", want, err)
					return
				}
				// echoExec tags the payload with the serving subset size;
				// the identity prefix must be this goroutine's own.
				got, ok := res.(string)
				if !ok || !strings.HasPrefix(got, want+"@") {
					t.Errorf("result identity crossed: submitted %q, got %v", want, res)
					return
				}
				f.Release()
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	ctlWG.Wait()
}

// TestFutureStaleHandleFailsLoudly pins the generation-stamp contract: any
// use of a released future — reads, waits, or a second release — panics
// instead of silently observing a recycled slot.
func TestFutureStaleHandleFailsLoudly(t *testing.T) {
	d := runtimeDeployment(t, 0.5)
	loop := sim.NewEventLoop()
	rt, err := NewRuntime(d, &SyncAll{D: d},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500), echoExec,
		RuntimeConfig{Timeline: loop})
	if err != nil {
		t.Fatal(err)
	}
	var fut Future
	loop.Schedule(0.01, func() { fut, _ = rt.Submit("once") })
	loop.RunUntil(30)
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	stale := fut // surviving copy of the handle
	fut.Release()

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a released future did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Wait", func() { _, _ = stale.Wait() })
	mustPanic("Models", func() { _ = stale.Models() })
	mustPanic("Latency", func() { _ = stale.Latency() })
	mustPanic("Release", func() { stale.Release() })

	var zero Future
	if zero.Valid() {
		t.Fatal("zero future reports Valid")
	}
	mustPanic("zero Wait", func() { _, _ = zero.Wait() })
}

// closeTrackingBackend records when Close is called, with a deliberate delay
// so an untracked drain goroutine would lose the race against the test's
// assertions deterministically.
type closeTrackingBackend struct {
	closed  atomic.Bool
	closeMu sync.Mutex
}

func (b *closeTrackingBackend) Name() string { return "close-tracking" }

func (b *closeTrackingBackend) Execute(ctx context.Context, task ExecTask) ([]any, float64, error) {
	return nil, task.ProfiledFinish - task.Decided, nil
}

func (b *closeTrackingBackend) Close() error {
	b.closeMu.Lock()
	defer b.closeMu.Unlock()
	time.Sleep(20 * time.Millisecond)
	b.closed.Store(true)
	return nil
}

// TestSetBackendDrainTracked pins the SetBackend drain bugfix: the old
// backend's background drain rides the runtime lifecycle, so Close cannot
// return while the old tier is still draining or mid-Close. Before the fix
// the drain goroutine was untracked and this assertion raced (and lost,
// given the deliberate delay in the backend's Close).
func TestSetBackendDrainTracked(t *testing.T) {
	d := replicaDeployment(t, 0.25, 2)
	old := &closeTrackingBackend{}
	rt, err := NewRuntime(d, &SyncAll{D: d},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200), echoExec,
		RuntimeConfig{
			Timeline: &sim.WallTimeline{Speedup: 2000},
			Backend:  old,
		})
	if err != nil {
		t.Fatal(err)
	}
	// Serve a batch on the old tier so its in-flight WaitGroup has seen
	// real traffic before the swap.
	f, err := rt.Submit("pre-swap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	f.Release()

	if err := rt.SetBackend(&SimBackend{}, echoExec); err != nil { // swap back to the sim default
		t.Fatal(err)
	}
	rt.Close()
	if !old.closed.Load() {
		t.Fatal("Runtime.Close returned before the swapped-out backend was closed")
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// resolved reports, without blocking, whether f's request has resolved.
func resolved(f Future) bool { return f.slot().state.Load() == futResolved }

// waitDone runs f.Wait on its own goroutine and returns a channel closed when
// it returns, for a select with a timeout.
func waitDone(f Future) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		_, _ = f.Wait()
		close(ch)
	}()
	return ch
}

// TestFutureServeCycleAllocs pins the allocations of one 16-request batch
// served end to end over the virtual-time loop: Submit → dispatch → backend
// passes → finalize → Wait → Release. Waiters park on their own slots, so a
// batch allocates no broadcast channel, and its run is pooled.
func TestFutureServeCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const batch, wantAllocs = 16, 12
	d := runtimeDeployment(t, 0.5)
	loop := sim.NewEventLoop()
	results := make([]any, batch)
	combine := func(ids []uint64, _ []any, _ []string, _ [][]any) ([]any, error) {
		return results[:len(ids)], nil
	}
	rt, err := NewRuntime(d, &SyncAll{D: d},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500), combine,
		RuntimeConfig{Timeline: loop})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	futs := make([]Future, batch)
	horizon := 0.0
	cycle := func() {
		for i := range futs {
			f, err := rt.Submit(i)
			if err != nil {
				t.Fatal(err)
			}
			futs[i] = f
		}
		horizon += 10
		loop.RunUntil(horizon)
		for i, f := range futs {
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
			f.Release()
			futs[i] = Future{}
		}
	}
	cycle() // warm the slot and run pools
	before := rt.Stats().Dispatches
	got := testing.AllocsPerRun(50, cycle)
	if n := rt.Stats().Dispatches - before; n != 51 {
		t.Fatalf("dispatches = %d over 51 cycles, want one batch per cycle", n)
	}
	if got != wantAllocs {
		t.Fatalf("allocs per served batch = %v, want %d", got, wantAllocs)
	}
}

// TestFutureStaleTokenReparks: a token left in a pending slot's wake channel
// (a late wake from the slot's previous generation) is consumed and the
// waiter parks again, instead of returning or spinning; resolve then returns
// it with the resolved error.
func TestFutureStaleTokenReparks(t *testing.T) {
	f, s := acquireSlot("stale")
	s.wake <- struct{}{}
	errc := make(chan error, 1)
	go func() {
		_, err := f.Wait()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-errc:
		t.Fatalf("Wait returned %v on a pending slot", err)
	default:
	}
	if n := len(s.wake); n != 0 {
		t.Fatalf("wake holds %d tokens, want 0: the waiter did not park again", n)
	}
	want := errors.New("teardown")
	s.resolve(nil, want, nil, 0)
	select {
	case err := <-errc:
		if err != want {
			t.Fatalf("Wait = %v, want %v", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after resolve")
	}
	f.Release()
}

// TestFutureConcurrentWaiters: on the wall clock, eight goroutines wait on
// copies of one handle — half from before dispatch, half after the request
// resolved — and every one of them returns the same result.
func TestFutureConcurrentWaiters(t *testing.T) {
	d := runtimeDeployment(t, 0.25)
	rt, err := NewRuntime(d, &SyncAll{D: d},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200), echoExec,
		RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const waiters = 8
	for round := 0; round < 5; round++ {
		payload := fmt.Sprintf("r%d", round)
		f, err := rt.Submit(payload)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]any, waiters)
		var wg sync.WaitGroup
		wait := func(w int, h Future) {
			defer wg.Done()
			res, err := h.Wait()
			if err != nil {
				t.Errorf("waiter %d: %v", w, err)
			}
			got[w] = res
		}
		wg.Add(waiters / 2)
		for w := 0; w < waiters/2; w++ {
			go wait(w, f)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		wg.Add(waiters / 2)
		for w := waiters / 2; w < waiters; w++ {
			go wait(w, f)
		}
		wg.Wait()
		want := payload + "@3"
		for w, res := range got {
			if res != want {
				t.Fatalf("round %d waiter %d = %v, want %q", round, w, res, want)
			}
		}
		f.Release()
	}
}

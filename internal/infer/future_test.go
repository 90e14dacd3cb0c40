package infer

import (
	"context"
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
// control goroutine re-shards the queue layer back and forth and swaps the
// policy live, exercising every path that moves futures between stripes,
// shards and batches.
func TestFuturePoolStress(t *testing.T) {
	d := replicaDeployment(t, 0.25, 4)
	rt, err := NewRuntime(d, &SyncAll{D: d},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200), echoExec,
		RuntimeConfig{
			Timeline: &sim.WallTimeline{Speedup: 2000},
			QueueCap: 1 << 20,
			Shards:   8,
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
		shardTo := []int{4, 8, 2, 8}
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := rt.SetShards(shardTo[i%len(shardTo)]); err != nil && err != ErrClosed {
				t.Errorf("SetShards: %v", err)
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
	mustPanic("Done", func() { _ = stale.Done() })
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
	return nil, task.ProfiledLatency, nil
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

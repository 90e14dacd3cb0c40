package infer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rafiki/internal/ensemble"
	"rafiki/internal/nn"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// newWallRuntime wires a runtime over a fast wall timeline for the backend
// tests: 3 ConvNet models, the given combiner, the sim backend unless cfg
// names another.
func newWallRuntime(t *testing.T, combine CombineFunc, cfg RuntimeConfig) *Runtime {
	t.Helper()
	d := runtimeDeployment(t, 0.25)
	if cfg.Timeline == nil {
		cfg.Timeline = &sim.WallTimeline{Speedup: 500}
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 1 << 20
	}
	rt, err := NewRuntime(d, &SyncAll{D: d},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200), combine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// blockingBackend parks every Execute until its gate closes (or the context
// cancels), recording how many passes started.
type blockingBackend struct {
	gate    chan struct{}
	started atomic.Int64
}

func (b *blockingBackend) Name() string { return "blocking" }
func (b *blockingBackend) Execute(ctx context.Context, t ExecTask) ([]any, float64, error) {
	b.started.Add(1)
	select {
	case <-b.gate:
		return nil, t.ProfiledLatency, nil
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}
func (b *blockingBackend) Close() error { return nil }

// TestRuntimeCloseCancelsInflightBackendWork is the teardown regression: a
// Close while backend passes are in flight must cancel them via context and
// fail their futures fast, not wait out (or race) the backend.
func TestRuntimeCloseCancelsInflightBackendWork(t *testing.T) {
	b := &blockingBackend{gate: make(chan struct{})}
	rt := newWallRuntime(t, echoExec, RuntimeConfig{Backend: b})
	defer close(b.gate)

	f, err := rt.Submit([]byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.started.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("backend pass never started")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	rt.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close blocked %v behind a hung backend", elapsed)
	}
	if _, err := f.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("in-flight future error = %v, want ErrClosed", err)
	}
}

// TestRuntimeBackendSaturation floods a runtime whose backend never finishes:
// once every pool worker is parked and the bounded pool queue is full,
// further dispatches fail with ErrBackendSaturated (which unwraps to
// ErrQueueFull, so the REST 429 mapping holds) instead of growing goroutines.
// The pool queues keep their default bound, the request-queue capacity: a
// 4-slot queue lets at most 4 batches wait per model, and submitters keep
// refilling the request queue as batches leave it.
func TestRuntimeBackendSaturation(t *testing.T) {
	b := &blockingBackend{gate: make(chan struct{})}
	rt := newWallRuntime(t, echoExec, RuntimeConfig{Backend: b, QueueCap: 4})
	defer rt.Close()
	defer close(b.gate)

	var (
		mu   sync.Mutex
		futs []Future
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				f, err := rt.Submit([]byte("q"))
				if err != nil {
					runtime.Gosched() // request queue full: wait for a dispatch
					continue
				}
				mu.Lock()
				futs = append(futs, f)
				mu.Unlock()
			}
		}()
	}
	// A batch refused by every model's pool resolves at once; one that some
	// pool still accepted stays parked on the gate. Scan each future once.
	var satErr error
	scanned := 0
	deadline := time.Now().Add(10 * time.Second)
	for satErr == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if rt.Stats().ExecRejected == 0 {
			continue
		}
		mu.Lock()
		for _, f := range futs[scanned:] {
			select {
			case <-f.Done():
				if _, err := f.Wait(); errors.Is(err, ErrBackendSaturated) {
					satErr = err
				}
			default:
			}
		}
		scanned = len(futs)
		mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	if satErr == nil {
		t.Fatalf("no future failed with ErrBackendSaturated within 10s (rejected=%d)", rt.Stats().ExecRejected)
	}
	if !errors.Is(satErr, ErrQueueFull) {
		t.Fatalf("ErrBackendSaturated must unwrap to ErrQueueFull, got %v", satErr)
	}
	st := rt.Stats()
	if st.ExecRejected == 0 {
		t.Fatalf("stats.ExecRejected = 0, want > 0")
	}
	if st.Backend != "blocking" {
		t.Fatalf("stats.Backend = %q", st.Backend)
	}
}

// TestRuntimeSetQueueCapRejectsZero: the executor pools' queues share the
// request-queue bound, so the runtime has no unbounded setting. A zero cap is
// refused instead of shrinking every pool queue to one batch, where the
// batches waiting on a busy backend failed with ErrBackendSaturated.
func TestRuntimeSetQueueCapRejectsZero(t *testing.T) {
	b := &blockingBackend{gate: make(chan struct{})}
	rt := newWallRuntime(t, echoExec, RuntimeConfig{Backend: b, QueueCap: 64})
	defer rt.Close()
	defer close(b.gate)
	for _, n := range []int{0, -1} {
		if err := rt.SetQueueCap(n); err == nil {
			t.Fatalf("SetQueueCap(%d) accepted", n)
		}
	}
	// Three batches on the gated backend: one running and two waiting in
	// each model's pool queue.
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().Dispatches < 3 && time.Now().Before(deadline) {
		if _, err := rt.Submit([]byte("q")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if st := rt.Stats(); st.Dispatches < 3 || st.ExecRejected != 0 {
		t.Fatalf("dispatches %d exec_rejected %d, want >= 3 and 0", st.Dispatches, st.ExecRejected)
	}
}

// TestHTTPBackendRetrySucceeds fails the first two calls and checks the
// capped-backoff retry loop lands the third, counting its retries.
func TestHTTPBackendRetrySucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusBadGateway)
			return
		}
		fmt.Fprint(w, `{"predictions": [1, 2]}`)
	}))
	defer srv.Close()

	b := &HTTPBackend{URL: srv.URL, Timeout: time.Second, MaxRetries: 3}
	b.BindTimeline(&sim.WallTimeline{})
	preds, obs, err := b.Execute(context.Background(), ExecTask{
		Model: "m", IDs: []uint64{7, 8}, Payloads: []any{[]byte("a"), []byte("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 || preds[0].(float64) != 1 || preds[1].(float64) != 2 {
		t.Fatalf("preds = %v", preds)
	}
	if obs <= 0 {
		t.Fatalf("observed latency = %v, want > 0", obs)
	}
	if got := b.Retries(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

// TestHTTPBackendFailsAfterRetries exhausts the retry budget against an
// always-failing endpoint.
func TestHTTPBackendFailsAfterRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	b := &HTTPBackend{URL: srv.URL, Timeout: time.Second, MaxRetries: 2}
	_, _, err := b.Execute(context.Background(), ExecTask{Model: "m", IDs: []uint64{1}, Payloads: []any{[]byte("a")}})
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want failure after 3 attempts", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want 3", got)
	}
}

// TestHTTPBackendTimeout points the backend at a handler slower than its
// per-call timeout with no retries: the call must fail within the deadline,
// not hang for the handler.
func TestHTTPBackendTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	// LIFO: release the parked handler before srv.Close waits for it.
	defer close(release)

	b := &HTTPBackend{URL: srv.URL, Timeout: 50 * time.Millisecond, MaxRetries: 0}
	start := time.Now()
	_, _, err := b.Execute(context.Background(), ExecTask{Model: "m", IDs: []uint64{1}, Payloads: []any{[]byte("a")}})
	if err == nil {
		t.Fatal("want timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timed-out call took %v", elapsed)
	}
}

// TestHTTPBackendCancelDuringBackoff cancels the context while the backend
// sleeps between retries; Execute must return promptly with the context
// error instead of finishing the backoff schedule.
func TestHTTPBackendCancelDuringBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	b := &HTTPBackend{URL: srv.URL, Timeout: time.Second, MaxRetries: 50}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := b.Execute(ctx, ExecTask{Model: "m", IDs: []uint64{1}, Payloads: []any{[]byte("a")}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled Execute took %v", elapsed)
	}
}

// TestRuntimeHTTPBackendEndToEnd serves real batches through an httptest
// endpoint: predictions flow back through a combiner into the futures.
func TestRuntimeHTTPBackendEndToEnd(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req httpExecRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		preds := make([]any, len(req.IDs))
		for i, id := range req.IDs {
			preds[i] = float64(id % 7)
		}
		if err := json.NewEncoder(w).Encode(httpExecResponse{Predictions: preds}); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	combine := func(ids []uint64, payloads []any, models []string, preds [][]any) ([]any, error) {
		out := make([]any, len(ids))
		for i, id := range ids {
			for k := range models {
				if got := preds[k][i].(float64); got != float64(id%7) {
					return nil, fmt.Errorf("model %d pred for id %d = %v", k, id, got)
				}
			}
			out[i] = ids[i] % 7
		}
		return out, nil
	}
	rt := newWallRuntime(t, combine, RuntimeConfig{
		Backend: &HTTPBackend{URL: srv.URL, Timeout: 2 * time.Second, MaxRetries: 2},
	})
	defer rt.Close()

	futs := make([]Future, 0, 64)
	for i := 0; i < 64; i++ {
		f, err := rt.Submit([]byte(fmt.Sprintf("p%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := rt.Stats(); st.Backend != "http" || st.Served < 64 {
		t.Fatalf("stats = backend %q served %d", st.Backend, st.Served)
	}
}

// countingBackend counts passes and tags its predictions, so a swap test can
// tell which backend served a batch.
type countingBackend struct {
	tag    int
	passes atomic.Int64
	closed atomic.Bool
}

func (b *countingBackend) Name() string { return fmt.Sprintf("counting-%d", b.tag) }
func (b *countingBackend) Execute(ctx context.Context, t ExecTask) ([]any, float64, error) {
	b.passes.Add(1)
	preds := make([]any, len(t.IDs))
	for i := range preds {
		preds[i] = b.tag
	}
	return preds, t.ProfiledLatency, nil
}
func (b *countingBackend) Close() error { b.closed.Store(true); return nil }

// TestRuntimeBackendSwapUnderLoad swaps backends while submitters flood the
// runtime: every future resolves, batches in flight drain on the backend
// that launched them, and the swapped-out backend is closed after draining.
func TestRuntimeBackendSwapUnderLoad(t *testing.T) {
	b1 := &countingBackend{tag: 1}
	combine := func(ids []uint64, payloads []any, models []string, preds [][]any) ([]any, error) {
		out := make([]any, len(ids))
		for i := range ids {
			tag := preds[0][i].(int)
			for k := range models {
				if preds[k][i].(int) != tag {
					return nil, fmt.Errorf("batch served by mixed backends: %v vs %v", preds[k][i], tag)
				}
			}
			out[i] = tag
		}
		return out, nil
	}
	rt := newWallRuntime(t, combine, RuntimeConfig{Backend: b1})
	defer rt.Close()

	const total = 4000
	var wg sync.WaitGroup
	futs := make([][]Future, 4)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				f, err := rt.Submit([]byte("q"))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				futs[s] = append(futs[s], f)
			}
		}(s)
	}
	// Swap to a second backend mid-flood, then back again.
	b2 := &countingBackend{tag: 2}
	time.Sleep(5 * time.Millisecond)
	if err := rt.SetBackend(b2, combine); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	got := map[int]int{}
	for _, fs := range futs {
		for _, f := range fs {
			v, err := f.Wait()
			if err != nil {
				t.Fatal(err)
			}
			got[v.(int)]++
		}
	}
	if got[1]+got[2] != total {
		t.Fatalf("tags = %v, want %d total", got, total)
	}
	if got[2] == 0 {
		t.Fatalf("no batch served by the swapped-in backend: %v", got)
	}
	if rt.BackendName() != "counting-2" {
		t.Fatalf("live backend = %q", rt.BackendName())
	}
	// b1 drained (all futures resolved), so its Close must have run.
	deadline := time.Now().Add(5 * time.Second)
	for !b1.closed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("swapped-out backend never closed after drain")
		}
		time.Sleep(time.Millisecond)
	}
}

// slowBackend reports a fixed observed latency multiple of the profile.
type slowBackend struct {
	factor float64
}

func (b *slowBackend) Name() string { return "slow" }
func (b *slowBackend) Execute(ctx context.Context, t ExecTask) ([]any, float64, error) {
	return nil, t.ProfiledLatency * b.factor, nil
}
func (b *slowBackend) Close() error { return nil }

// TestLatencyFeedbackRescalesPlanning runs a backend that reports 4× the
// profiled latency and checks the EWMA pushes the applied planning scale up,
// while the sim backend keeps it pinned at exactly 1.
func TestLatencyFeedbackRescalesPlanning(t *testing.T) {
	// The backend returns instantly (it only *reports* 4x latency), so a
	// scheduler hiccup can queue several batches on a pool before its
	// worker runs; the roomy request queue (which also bounds the pool
	// queues) keeps this test about feedback, not saturation.
	rt := newWallRuntime(t, echoExec, RuntimeConfig{Backend: &slowBackend{factor: 4}})
	futs := make([]Future, 0, 256)
	for i := 0; i < 256; i++ {
		f, err := rt.Submit([]byte("q"))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	rt.Close()
	maxScale := 0.0
	for _, s := range st.ModelLatencyScale {
		if s > maxScale {
			maxScale = s
		}
	}
	if maxScale < 1.5 {
		t.Fatalf("latency scale = %v, want a model pushed well above 1 by 4x observations", st.ModelLatencyScale)
	}
	ewmaSeen := false
	for _, v := range st.ModelLatencyEWMA {
		if v > 0 {
			ewmaSeen = true
		}
	}
	if !ewmaSeen {
		t.Fatalf("no observed-latency EWMA recorded: %v", st.ModelLatencyEWMA)
	}

	// The default sim backend reports the table value exactly: the scale
	// must stay exactly 1 (no float drift) after the same load.
	rt2 := newWallRuntime(t, echoExec, RuntimeConfig{})
	futs = futs[:0]
	for i := 0; i < 256; i++ {
		f, err := rt2.Submit([]byte("q"))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st2 := rt2.Stats()
	rt2.Close()
	for m, s := range st2.ModelLatencyScale {
		if s != 1 {
			t.Fatalf("sim backend drifted model %d scale to %v", m, s)
		}
	}
}

// encodeTestPayload is the nn backend tests' featurizer: bytes scaled into 8
// buckets of the zeroed input row.
func encodeTestPayload(payload any, dst []float64) error {
	bs, ok := payload.([]byte)
	if !ok {
		return fmt.Errorf("payload %T", payload)
	}
	for i, b := range bs {
		dst[i%8] += float64(b) / 255
	}
	return nil
}

// TestNNBackendExecuteAllocations pins the batched pass's scratch reuse: once
// a net has served its largest batch, a pass allocates only the preds slice,
// and its answers are Forward's.
func TestNNBackendExecuteAllocations(t *testing.T) {
	net := nn.NewMLP([]int{8, 12, 5}, nn.ReLU, nn.Linear, sim.NewRNG(7))
	backend, err := NewNNBackend(encodeTestPayload, map[string]*nn.MLP{"m": net})
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([]any, 16)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("alloc-payload-%d", i*37))
	}
	task := ExecTask{Model: "m", Payloads: payloads}
	ctx := context.Background()
	preds, _, err := backend.Execute(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)
	for i, p := range payloads {
		clear(x)
		if err := encodeTestPayload(p, x); err != nil {
			t.Fatal(err)
		}
		if want := nn.Argmax(net.Forward(x)); preds[i] != want {
			t.Fatalf("pred %d = %v, Forward says %d", i, preds[i], want)
		}
	}
	short := ExecTask{Model: "m", Payloads: payloads[:7]}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := backend.Execute(ctx, task); err != nil {
			t.Fatal(err)
		}
		if _, _, err := backend.Execute(ctx, short); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("two steady-state passes allocated %v times, want only their preds slices", allocs)
	}
}

// TestNNBackendServesPredictions runs real MLP forward passes through the
// runtime: deterministic argmax classes come back through the combiner.
func TestNNBackendServesPredictions(t *testing.T) {
	const classes = 4
	rng := sim.NewRNG(42)
	nets := map[string]*nn.MLP{}
	for _, name := range []string{"inception_v3", "inception_v4", "inception_resnet_v2"} {
		nets[name] = nn.NewMLP([]int{8, 12, classes}, nn.ReLU, nn.Linear, rng)
	}
	backend, err := NewNNBackend(encodeTestPayload, nets)
	if err != nil {
		t.Fatal(err)
	}
	combine := func(ids []uint64, payloads []any, models []string, preds [][]any) ([]any, error) {
		out := make([]any, len(ids))
		for i := range ids {
			votes := make([]int, len(models))
			accs := make([]float64, len(models))
			for k := range models {
				votes[k] = preds[k][i].(int)
				accs[k] = 1
			}
			win, err := ensemble.Vote(votes, accs)
			if err != nil {
				return nil, err
			}
			out[i] = win
		}
		return out, nil
	}
	rt := newWallRuntime(t, combine, RuntimeConfig{Backend: backend})
	defer rt.Close()

	// The same payload must classify identically on every query (a pure
	// forward pass), and classes must be in range.
	results := map[string]int{}
	for round := 0; round < 2; round++ {
		futs := make([]Future, 0, 32)
		for i := 0; i < 32; i++ {
			f, err := rt.Submit([]byte(fmt.Sprintf("payload-%d", i%8)))
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
		for i, f := range futs {
			v, err := f.Wait()
			if err != nil {
				t.Fatal(err)
			}
			cls := v.(int)
			if cls < 0 || cls >= classes {
				t.Fatalf("class %d out of range", cls)
			}
			key := fmt.Sprintf("payload-%d", i%8)
			if prev, ok := results[key]; ok && prev != cls {
				t.Fatalf("payload %s classified %d then %d", key, prev, cls)
			}
			results[key] = cls
		}
	}
	if st := rt.Stats(); st.Backend != "nn" {
		t.Fatalf("stats.Backend = %q", st.Backend)
	}
}

// TestRuntimeDeterministicBatchingWithBackend re-runs the EventLoop
// determinism check through an explicit prediction backend: inline execution
// from finish events keeps the loop single-threaded and the stats exact.
func TestRuntimeDeterministicBatchingWithBackend(t *testing.T) {
	run := func() (Stats, []any) {
		d := runtimeDeployment(t, 0.5)
		loop := sim.NewEventLoop()
		b := &countingBackend{tag: 9}
		combine := func(ids []uint64, payloads []any, models []string, preds [][]any) ([]any, error) {
			out := make([]any, len(ids))
			for i := range ids {
				out[i] = preds[0][i]
			}
			return out, nil
		}
		rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 500),
			combine, RuntimeConfig{Timeline: loop, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		futs := make([]Future, 0, 24)
		for i := 0; i < 24; i++ {
			loop.Schedule(0.01+0.004*float64(i), func() {
				f, err := rt.Submit(fmt.Sprintf("req-%d", len(futs)))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				futs = append(futs, f)
			})
		}
		loop.RunUntil(30)
		results := make([]any, 0, len(futs))
		for _, f := range futs {
			v, err := f.Wait()
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, v)
		}
		return rt.Stats(), results
	}
	st1, res1 := run()
	st2, res2 := run()
	if st1.Served != 24 || st1.Served != st2.Served || st1.Dispatches != st2.Dispatches || st1.Decisions != st2.Decisions {
		t.Fatalf("non-deterministic stats: %+v vs %+v", st1, st2)
	}
	for i := range res1 {
		if res1[i] != res2[i] {
			t.Fatalf("result %d differs: %v vs %v", i, res1[i], res2[i])
		}
	}
}

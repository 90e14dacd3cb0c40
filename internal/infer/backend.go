package infer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rafiki/internal/nn"
	"rafiki/internal/sim"
)

// ExecTask is one model's share of a dispatched batch, handed to a Backend.
type ExecTask struct {
	// Model is the serving model's name; ModelIndex its deployment index.
	Model      string
	ModelIndex int
	// IDs and Payloads are the batch requests (parallel, oldest first).
	IDs      []uint64
	Payloads []any
	// Decided is the dispatch decision time and ProfiledFinish the time the
	// latency table predicts this model frees up, both in timeline seconds.
	Decided        float64
	ProfiledFinish float64
	// Timeline is the runtime's clock: backends pace and time their pass on
	// it, so observed latencies are in timeline seconds.
	Timeline sim.Timeline
}

// Backend executes one model's pass over a dispatched batch. Execute returns
// the model's per-request predictions (preds[i] answers IDs[i]; nil when the
// backend only paces time, like the default SimBackend), the observed batch
// latency in timeline seconds (fed into the runtime's latency EWMA; <= 0 is
// ignored), and an error that fails the whole batch. Execute runs on a pass
// worker (or inline under a virtual-time driver) while the batch holds its
// model's replica, and must honor ctx — the runtime cancels it on Close so
// teardown never waits out a slow or hung backend.
type Backend interface {
	// Name identifies the backend kind in stats and status ("sim", "nn",
	// "http", ...).
	Name() string
	Execute(ctx context.Context, task ExecTask) (preds []any, observedLatency float64, err error)
	// Close releases the backend's resources once every in-flight batch on
	// it has drained (the runtime guarantees the ordering on swap/teardown).
	Close() error
}

// CombineFunc folds the per-model backend predictions of one batch into one
// result per request: preds[k][i] is models[k]'s prediction for IDs[i]
// (preds[k] is nil for a backend that only paces time, like SimBackend). It
// runs once per batch, after every model pass completed, and must return one
// result per request.
type CombineFunc func(ids []uint64, payloads []any, models []string, preds [][]any) ([]any, error)

// RetryCounter is implemented by backends that retry transient failures
// internally (HTTPBackend); the runtime surfaces the count in Stats.
type RetryCounter interface {
	Retries() uint64
}

// SimBackend is the default backend: it serves the profiled-simulation path.
// Execute sleeps until the task's ProfiledFinish when the task's timeline is
// a concurrent one (virtual-time drivers invoke it at the finish instant, so there
// is nothing to wait) and returns the planned pass time ProfiledFinish −
// Decided as the observed latency. That is the table value up to one
// rounding, far inside the feedback's dead-band, so the applied scale stays
// exactly 1 and planning is bit-identical to a feedback-free runtime.
//
// It yields no predictions: the runtime's CombineFunc computes every result
// from the payloads at ensemble finish. A simulated ensemble draws its
// members' votes jointly — one shared per-request draw correlates them — so
// per-model predictions would redo each request's truth lookup and seeded
// draw once per model, adding allocations per request for the same answers.
type SimBackend struct{}

// Name implements Backend.
func (b *SimBackend) Name() string { return "sim" }

// Execute implements Backend: wait out the profiled service time, honoring
// cancellation.
func (b *SimBackend) Execute(ctx context.Context, t ExecTask) ([]any, float64, error) {
	if ct, ok := t.Timeline.(sim.ConcurrentTimeline); ok {
		if wait := t.ProfiledFinish - ct.Now(); wait > 0 {
			if err := ct.Sleep(ctx, wait); err != nil {
				return nil, 0, err
			}
		}
	}
	return nil, t.ProfiledFinish - t.Decided, nil
}

// Close implements Backend.
func (b *SimBackend) Close() error { return nil }

// NNBackend serves real in-process inference: one internal/nn network per
// model, predictions the argmax class index (int). A dispatched batch is one
// pass per net, not one per request: Execute encodes every payload into a row
// of one input matrix and runs a single MLP.ForwardBatch over it, whose
// outputs are bit-identical to per-request Forward calls. The input matrix
// and the layer buffers belong to the net's lockedNet and grow to the largest
// batch it has served, so a steady-state pass allocates only its preds slice;
// sharing that scratch is why each net serializes its batches behind a mutex —
// concurrency comes from passes of different models running at once. MLP.Forward stays the
// single-sample path for training, which needs its Backward cache.
type NNBackend struct {
	encode func(payload any, dst []float64) error
	nets   map[string]*lockedNet
}

// lockedNet is one model's network plus its batched pass's scratch, all
// guarded by mu: in is the encoded input matrix, bufs the per-layer outputs.
type lockedNet struct {
	mu   sync.Mutex
	net  *nn.MLP
	in   []float64
	bufs [][]float64
}

// NewNNBackend wires an in-process backend over per-model networks. encode
// writes a request payload's features into dst, a zeroed row as wide as the
// nets' input layer.
func NewNNBackend(encode func(payload any, dst []float64) error, nets map[string]*nn.MLP) (*NNBackend, error) {
	if encode == nil {
		return nil, fmt.Errorf("infer: nn backend needs an encoder")
	}
	if len(nets) == 0 {
		return nil, fmt.Errorf("infer: nn backend needs at least one model network")
	}
	b := &NNBackend{encode: encode, nets: make(map[string]*lockedNet, len(nets))}
	for name, net := range nets {
		if net == nil {
			return nil, fmt.Errorf("infer: nn backend model %q has no network", name)
		}
		b.nets[name] = &lockedNet{net: net, bufs: make([][]float64, len(net.Layers))}
	}
	return b, nil
}

// Name implements Backend.
func (b *NNBackend) Name() string { return "nn" }

// Execute implements Backend: encode the batch into the net's input matrix,
// run one batched forward pass over it, and observe the real wall of the pass
// in timeline seconds.
func (b *NNBackend) Execute(ctx context.Context, t ExecTask) ([]any, float64, error) {
	ln, ok := b.nets[t.Model]
	if !ok {
		return nil, 0, fmt.Errorf("infer: nn backend has no network for model %q", t.Model)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	start := t.Timeline.Now()
	preds := make([]any, len(t.Payloads))
	ln.mu.Lock()
	defer ln.mu.Unlock()
	width := ln.net.Layers[0].In
	need := len(t.Payloads) * width
	if cap(ln.in) < need {
		ln.in = make([]float64, need)
	}
	x := ln.in[:need]
	clear(x)
	for i, p := range t.Payloads {
		if err := b.encode(p, x[i*width:(i+1)*width]); err != nil {
			return nil, 0, fmt.Errorf("infer: nn backend encode: %w", err)
		}
	}
	y := ln.net.ForwardBatch(x, ln.bufs)
	classes := ln.net.Layers[len(ln.net.Layers)-1].Out
	for i := range preds {
		preds[i] = nn.Argmax(y[i*classes : (i+1)*classes])
	}
	return preds, t.Timeline.Now() - start, nil
}

// Close implements Backend.
func (b *NNBackend) Close() error { return nil }

// httpExecRequest is the wire form of one backend call: POSTed as JSON to
// the backend URL. []byte payloads marshal as base64 strings.
type httpExecRequest struct {
	Model    string   `json:"model"`
	IDs      []uint64 `json:"ids"`
	Payloads []any    `json:"payloads"`
}

// httpExecResponse is the expected reply: one prediction per request, in
// order. Numeric predictions decode as float64; the combiner coerces.
type httpExecResponse struct {
	Predictions []any `json:"predictions"`
}

// HTTPBackend forwards each model pass to a remote inference endpoint:
// POST url with {"model","ids","payloads"}, expecting {"predictions":[...]}.
// Calls carry a per-attempt timeout and retry transient failures (transport
// errors, non-200 statuses, malformed replies) with capped exponential
// backoff; the runtime's Close cancels the context, which aborts both the
// in-flight call and any backoff sleep immediately.
type HTTPBackend struct {
	// URL is the endpoint; Timeout the per-attempt deadline (default 1s
	// wall); MaxRetries how many re-attempts follow a failed call (default
	// 0 — set explicitly; the spec layer defaults it to 2).
	URL        string
	Timeout    time.Duration
	MaxRetries int
	// Client overrides the HTTP client (tests); nil uses a private default.
	Client *http.Client

	retries atomic.Uint64
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return "http" }

// Retries implements RetryCounter.
func (b *HTTPBackend) Retries() uint64 { return b.retries.Load() }

// httpBackoffBase and httpBackoffCap bound the retry backoff: the first
// retry waits the base, each further retry doubles it up to the cap.
const (
	httpBackoffBase = 25 * time.Millisecond
	httpBackoffCap  = 500 * time.Millisecond
)

// Execute implements Backend.
func (b *HTTPBackend) Execute(ctx context.Context, t ExecTask) ([]any, float64, error) {
	client := b.Client
	if client == nil {
		client = &http.Client{}
	}
	timeout := b.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	body, err := json.Marshal(httpExecRequest{Model: t.Model, IDs: t.IDs, Payloads: t.Payloads})
	if err != nil {
		return nil, 0, fmt.Errorf("infer: http backend encode: %w", err)
	}
	start := t.Timeline.Now()
	backoff := httpBackoffBase
	var lastErr error
	for attempt := 0; attempt <= b.MaxRetries; attempt++ {
		if attempt > 0 {
			b.retries.Add(1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			}
			if backoff *= 2; backoff > httpBackoffCap {
				backoff = httpBackoffCap
			}
		}
		preds, err := b.call(ctx, client, timeout, body, len(t.IDs))
		if err == nil {
			return preds, t.Timeline.Now() - start, nil
		}
		if ctx.Err() != nil {
			// The runtime is tearing down (or the caller gave up): don't
			// burn the remaining retries against a cancelled context.
			return nil, 0, ctx.Err()
		}
		lastErr = err
	}
	return nil, 0, fmt.Errorf("infer: http backend %s failed after %d attempts: %w", b.URL, b.MaxRetries+1, lastErr)
}

// call is one attempt against the endpoint.
func (b *HTTPBackend) call(ctx context.Context, client *http.Client, timeout time.Duration, body []byte, want int) ([]any, error) {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, b.URL, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out httpExecResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode reply: %w", err)
	}
	if len(out.Predictions) != want {
		return nil, fmt.Errorf("got %d predictions for a batch of %d", len(out.Predictions), want)
	}
	return out.Predictions, nil
}

// Close implements Backend: drop idle connections so a swapped-out backend
// holds no sockets.
func (b *HTTPBackend) Close() error {
	if b.Client != nil {
		b.Client.CloseIdleConnections()
	}
	return nil
}

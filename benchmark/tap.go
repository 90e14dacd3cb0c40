package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"time"

	"rafiki/internal/nn"
	"rafiki/internal/sim"
)

// modelStub is the benchmark's own model server for the backend tap: a
// deployment with backend type "http" sends it every model pass, so the
// benchmark sees — from outside the runtime — when each pass starts, which
// requests it batches, and when it ends.
type modelStub struct {
	t       *tracer
	seed    int64
	srv     *http.Server
	srvDone chan error
	url     string

	mu   sync.Mutex
	nets map[string]*stubNet
	// reqs tracks the tapped requests by payload.
	reqs map[string]*tapReq
	// passes, batched and passNs total the model passes served; batches
	// holds the first request ID of every distinct batch (a batch makes one
	// pass per model it is served by).
	passes, batched int
	passNs          int64
	batches         map[uint64]bool
}

// stubNet is one model's network. Forward reuses its buffers, so one network
// serves one pass at a time, like the in-process backend's per-model lock.
type stubNet struct {
	mu  sync.Mutex
	mlp *nn.MLP
}

// tapReq is one request's timeline as seen from both ends, in tracer-clock
// nanoseconds; 0 means not yet.
type tapReq struct {
	span                               uint64
	start, firstPass, lastPassEnd, end int64
}

// stubFeatures and stubHidden are the stub networks' shape: the bag-of-bytes
// input and single hidden layer the in-process nn backend uses.
const (
	stubFeatures = 16
	stubHidden   = 24
)

func newModelStub(t *tracer, seed int64) (*modelStub, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &modelStub{
		t: t, seed: seed, nets: map[string]*stubNet{}, reqs: map[string]*tapReq{}, batches: map[uint64]bool{},
		srvDone: make(chan error, 1), url: "http://" + ln.Addr().String() + "/",
	}
	s.srv = &http.Server{Handler: http.HandlerFunc(s.handle), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.srvDone <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for it, and drops the connections the
// runtime's HTTP backend opened to it through the default transport.
func (s *modelStub) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.srvDone
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}

// handle serves one model pass: {"model","ids","payloads"} in,
// {"predictions":[class index...]} out.
func (s *modelStub) handle(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Model    string   `json:"model"`
		IDs      []uint64 `json:"ids"`
		Payloads [][]byte `json:"payloads"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Payloads) == 0 || len(req.IDs) == 0 {
		http.Error(w, "bad pass", http.StatusBadRequest)
		return
	}
	start := s.t.now()
	var parent uint64
	s.mu.Lock()
	net := s.nets[req.Model]
	if net == nil {
		net = &stubNet{mlp: nn.NewMLP([]int{stubFeatures, stubHidden, len(foodClasses)}, nn.ReLU, nn.Linear,
			sim.NewRNG(s.seed).SplitNamed(req.Model))}
		s.nets[req.Model] = net
	}
	for _, p := range req.Payloads {
		if q := s.reqs[string(p)]; q != nil && q.firstPass == 0 {
			q.firstPass = start
			if parent == 0 {
				parent = q.span
			}
		}
	}
	s.mu.Unlock()

	preds := make([]int, len(req.Payloads))
	x := make([]float64, stubFeatures)
	net.mu.Lock()
	for i, p := range req.Payloads {
		clear(x)
		for _, c := range p {
			x[int(c)%stubFeatures] += 1 / float64(len(p))
		}
		preds[i] = nn.Argmax(net.mlp.Forward(x))
	}
	net.mu.Unlock()

	end := s.t.now()
	s.mu.Lock()
	for _, p := range req.Payloads {
		if q := s.reqs[string(p)]; q != nil {
			q.lastPassEnd = end
		}
	}
	s.passes++
	s.batched += len(req.Payloads)
	s.passNs += end - start
	s.batches[req.IDs[0]] = true
	s.mu.Unlock()
	s.t.add("backend.pass", parent, req.IDs[0], start, end)
	w.Header().Set("Content-Type", "application/json")
	// A failed write reaches the runtime as a backend error, which the stats
	// scrape reports.
	_ = json.NewEncoder(w).Encode(map[string]any{"predictions": preds})
}

// tapOp enters through System.Query and tracks every request from the call
// to the return; finished requests are appended to done. Every request is
// tracked, one in every is also recorded as a span.
func (s *modelStub) tapOp(d *deployment, in *queryInputs, every int, done *[]*tapReq) opFunc {
	return func(_, i int) outcome {
		j := i % len(in.payloads)
		q := &tapReq{start: s.t.now()}
		if i%every == 0 {
			q.span = s.t.begin("tap.query", 0, uint64(i))
		}
		s.mu.Lock()
		s.reqs[string(in.payloads[j])] = q
		s.mu.Unlock()
		res, err := d.sys.Query(d.job.ID, in.payloads[j])
		s.t.end(q.span) // a no-op for an unsampled request
		s.mu.Lock()
		q.end = s.t.now()
		*done = append(*done, q)
		s.mu.Unlock()
		if err != nil {
			return opFailed
		}
		return d.classify(res, in, j)
	}
}

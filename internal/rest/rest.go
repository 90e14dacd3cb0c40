// Package rest exposes a Rafiki System over the paper's RESTful APIs
// (Section 3: "users simply configure the training or inference jobs
// through either RESTFul APIs or Python SDK"; Section 8's curl example).
//
// Endpoint reference (all JSON):
//
//	Method  Path                           Success  Description
//	GET     /healthz                       200      liveness
//	GET     /api/v1/tasks                  200      built-in task → model catalogue
//	GET     /api/v1/datasets               200      list imported datasets
//	POST    /api/v1/datasets               201      import a labeled dataset
//	GET     /api/v1/train                  200      list training jobs with status
//	POST    /api/v1/train                  202      submit a training job
//	GET     /api/v1/train/{id}             200      training job status
//	GET     /api/v1/train/{id}/models      200      trained model instances (409 while running)
//	GET     /api/v1/inference              200      list deployments (spec + status each)
//	POST    /api/v1/inference              201      deploy a DeploymentSpec (policy, SLO, queue cap, replica bounds, autoscale, cache, backend)
//	GET     /api/v1/inference/{id}         200      describe one deployment: declarative spec + observed status (incl. queue depth, cache counters)
//	PUT     /api/v1/inference/{id}         200      reconcile the live deployment to a changed spec
//	GET     /api/v1/inference/{id}/stats   200      serving metrics (batching, SLO, latency, back-off δ and late batches, replicas, drain rate, queue depth, per-model backlogs and in-flight requests, cache counters)
//	POST    /api/v1/inference/{id}/scale   200      manually resize the replica pools (inside the spec bounds)
//	DELETE  /api/v1/inference/{id}         204      stop the deployment, release its containers
//	POST    /api/v1/query/{id}             200      classify a payload
//	GET     /api/v1/stats                  200      system-wide counts + journal stats (records, bytes, last_seq, chain_ok, fsync p99)
//	GET     /api/v1/journal?since=N        200      journal records with seq > N (404 when the server runs without a journal)
//	GET     /api/v1/journal/verify         200      re-walk the journal's hash chain: {chain_ok, records, last_seq, bad_seq?, reason?}
//	GET     /debug/pprof/...               200      profiling (only when the server was built WithPprof; 404 otherwise)
//
// Deployments are declarative resources: POST /api/v1/inference takes a
// DeploymentSpec (scheduling policy greedy|rl|async, latency SLO, queue cap,
// per-model replica bounds {min,max}, autoscale toggle, prediction-cache
// block), GET echoes the spec alongside observed status, and PUT validates a
// changed spec in full before reconciling the live runtime — a policy swap
// keeps queued requests, an SLO or queue-cap change retunes the scheduler,
// and replica-bound changes clamp the live pools. Unknown body keys are
// ignored. Error mapping is uniform over the SDK's typed error classes:
// rafiki.ErrNotFound (unknown dataset, train job, deployment, or model)
// answers 404, rafiki.ErrConflict (reading models off a still-running
// training job, reconciling to a different model set) answers 409,
// malformed bodies and spec validation answer 400, a request body over 4 MiB
// answers 413, and wrong methods on known routes answer 405.
//
// When the System was booted with rafiki.WithJournal, the journal endpoints
// expose the durable control plane: GET /api/v1/journal streams the
// hash-chained mutation records (optionally ?since=N for records with
// sequence > N — an incremental audit tail), GET /api/v1/journal/verify
// re-walks the whole chain and reports {"chain_ok":true,...} or the first
// bad sequence, and GET /api/v1/stats carries a "journal" block with the
// ledger's counters (records, bytes, segments, last_seq, fsyncs,
// fsync_p99_ms) plus a live chain_ok. Without a journal, /stats omits the
// block and the /journal endpoints answer 404.
//
// The optional "cache" spec block configures the read-through prediction
// cache (DESIGN.md §11): {"enabled":true, "capacity":N, "ttl_seconds":S,
// "admit_threshold":T, "half_life_seconds":H}. When enabled, query results
// for hot payloads are served from a sharded LRU without touching the
// batching runtime; only keys whose exponential-decay frequency crosses the
// admission threshold are stored, concurrent identical misses collapse into
// one engine submission, and a policy swap, replica scale, or fresh trainer
// checkpoint bumps the cache epoch so a superseded ensemble's results are
// never served. The describe and stats endpoints expose the counters as a
// "cache" object: hits, misses, hit_rate, entries, hot_keys, admissions,
// singleflight_collapsed, stale_evictions, ttl_evictions,
// capacity_evictions, invalidations, epoch.
//
// The optional "backend" spec block picks the execution tier that serves
// dispatched batches (DESIGN.md §12): {"type":"sim"|"nn"|"http", "url":U,
// "timeout_ms":T, "max_retries":R}. "sim" (the default when the block is
// absent) paces profiled latencies and simulates predictions exactly as
// before the backend layer existed; "nn" runs real in-process networks, one
// per deployed model; "http" forwards each model pass to the remote endpoint
// U — POST {"model","ids","payloads"} answered by {"predictions":[...]} class
// indices — with a per-attempt timeout of T milliseconds (default 1000) and
// up to R retries under capped exponential backoff (default 2; -1 disables).
// The url/timeout/retry fields are valid only with "http". A replica runs
// one pass at a time and stays busy until its pass returns, so a stalled
// tier backs requests up in the queue until it is full and then answers 429
// + Retry-After like any full queue. A PUT with a different block swaps the
// tier live, draining in-flight batches on the outgoing backend before it
// closes. The describe endpoint reports the live tier as status "backend",
// and /stats adds the requests in flight per model (model_inflight), backend
// error/retry counters, and the observed-latency EWMA the scheduler's
// planning tables are rescaled by.
//
// Queries are served through the deployment's batching runtime: concurrent
// POST /query callers are grouped into shared batches by the serving policy
// (Section 5), which the stats endpoint makes observable (dispatches <
// served under concurrency). A full queue answers 429 with a Retry-After
// header derived from the runtime's recent drain rate; a stopped or
// poisoned deployment answers 503.
package rest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"rafiki"
	"rafiki/internal/infer"
	"rafiki/internal/journal"
)

// Server is the HTTP facade over a System.
type Server struct {
	sys   *rafiki.System
	mux   *http.ServeMux
	pprof bool
}

// ServerOption tunes a Server at construction.
type ServerOption func(*Server)

// WithPprof mounts net/http/pprof's profiling handlers under /debug/pprof/.
// Off by default — the endpoints expose goroutine dumps and CPU/heap
// profiles, so an operator opts in explicitly (rafiki-server's -pprof flag or
// RAFIKI_PPROF=1); without the option the routes 404 like any unknown path.
func WithPprof() ServerOption {
	return func(s *Server) { s.pprof = true }
}

// NewServer wraps a System.
func NewServer(sys *rafiki.System, opts ...ServerOption) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	if s.pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /api/v1/tasks", s.handleTasks)
	s.mux.HandleFunc("GET /api/v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("POST /api/v1/datasets", s.handleImport)
	s.mux.HandleFunc("GET /api/v1/train", s.handleTrainList)
	s.mux.HandleFunc("POST /api/v1/train", s.handleTrain)
	s.mux.HandleFunc("GET /api/v1/train/{id}", s.handleTrainStatus)
	s.mux.HandleFunc("GET /api/v1/train/{id}/models", s.handleTrainModels)
	s.mux.HandleFunc("GET /api/v1/inference", s.handleInferenceList)
	s.mux.HandleFunc("POST /api/v1/inference", s.handleInference)
	s.mux.HandleFunc("GET /api/v1/inference/{id}", s.handleInferenceDescribe)
	s.mux.HandleFunc("PUT /api/v1/inference/{id}", s.handleInferenceReconcile)
	s.mux.HandleFunc("GET /api/v1/inference/{id}/stats", s.handleInferenceStats)
	s.mux.HandleFunc("POST /api/v1/inference/{id}/scale", s.handleInferenceScale)
	s.mux.HandleFunc("DELETE /api/v1/inference/{id}", s.handleInferenceStop)
	s.mux.HandleFunc("POST /api/v1/query/{id}", s.handleQuery)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/v1/journal", s.handleJournal)
	s.mux.HandleFunc("GET /api/v1/journal/verify", s.handleJournalVerify)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorBody is the wire shape of an error response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// maxBody bounds every request body; a longer one answers 413.
const maxBody = 4 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBody bytes.
// ok=false means the error answer was written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v); err != nil {
		writeBodyErr(w, err)
		return false
	}
	return true
}

// writeBodyErr answers a body that could not be read or decoded: 413 when it
// ran past maxBody, 400 otherwise.
func writeBodyErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, fmt.Errorf("rest: bad body: %w", err))
}

// statusFor maps the SDK's typed error classes onto uniform HTTP statuses —
// ErrNotFound → 404, ErrConflict → 409 — and anything unclassified onto the
// handler's fallback.
func statusFor(err error, fallback int) int {
	switch {
	case errors.Is(err, rafiki.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, rafiki.ErrConflict):
		return http.StatusConflict
	}
	return fallback
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleTasks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Tasks())
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.ListDatasets())
}

func (s *Server) handleTrainList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.ListTrainJobs())
}

// ImportRequest is the dataset-import request body.
type ImportRequest struct {
	Name string `json:"name"`
	// Folders maps class subfolder names to image counts.
	Folders map[string]int `json:"folders"`
}

func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	var req ImportRequest
	if !decodeBody(w, r, &req) {
		return
	}
	d, err := s.sys.ImportImages(req.Name, req.Folders)
	if err != nil {
		writeErr(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusCreated, d)
}

// TrainRequest is the training submission body (Figure 2's train.py).
type TrainRequest struct {
	Name        string           `json:"name"`
	Data        string           `json:"data"`
	Task        string           `json:"task"`
	InputShape  []int            `json:"input_shape"`
	OutputShape []int            `json:"output_shape"`
	Hyper       rafiki.HyperConf `json:"hyper"`
	Models      []string         `json:"models,omitempty"`
}

// TrainResponse carries the job handle.
type TrainResponse struct {
	JobID string `json:"job_id"`
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req TrainRequest
	if !decodeBody(w, r, &req) {
		return
	}
	job, err := s.sys.Train(rafiki.TrainConfig{
		Name:        req.Name,
		Data:        req.Data,
		Task:        req.Task,
		InputShape:  req.InputShape,
		OutputShape: req.OutputShape,
		Hyper:       req.Hyper,
		Models:      req.Models,
	})
	if err != nil {
		writeErr(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusAccepted, TrainResponse{JobID: job.ID})
}

func (s *Server) trainJob(w http.ResponseWriter, r *http.Request) (*rafiki.TrainJob, bool) {
	id := r.PathValue("id")
	job, err := s.sys.TrainJobByID(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return nil, false
	}
	return job, true
}

func (s *Server) handleTrainStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.trainJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleTrainModels(w http.ResponseWriter, r *http.Request) {
	job, ok := s.trainJob(w, r)
	if !ok {
		return
	}
	models, err := s.sys.GetModels(job.ID)
	if err != nil {
		writeErr(w, statusFor(err, http.StatusConflict), err)
		return
	}
	writeJSON(w, http.StatusOK, models)
}

// InferenceRequest is the deployment spec on the wire — the body of both
// POST /api/v1/inference (deploy) and PUT /api/v1/inference/{id}
// (reconcile). Models come either from a finished training job
// (train_job_id) or as an explicit instance list; on PUT both may be left
// empty to keep the deployed set (the model set is immutable). Zero-valued
// spec fields take the server's defaults: greedy policy, the system SLO, a
// 4096-slot queue, one replica per model, autoscaling off.
type InferenceRequest struct {
	TrainJobID string                 `json:"train_job_id,omitempty"`
	Models     []rafiki.ModelInstance `json:"models,omitempty"`
	// Policy is the dispatch scheduler: "greedy" (default), "rl" or "async".
	Policy string `json:"policy,omitempty"`
	// SLOSeconds is the latency SLO τ in profiled seconds.
	SLOSeconds float64 `json:"slo_seconds,omitempty"`
	// QueueCap bounds the request queue.
	QueueCap int `json:"queue_cap,omitempty"`
	// Replicas bounds each model's replica pool: the {"min","max"} object a
	// GET echoes, or the legacy bare integer (see ReplicaField).
	Replicas ReplicaField `json:"replicas,omitzero"`
	// Autoscale drives replica counts from backpressure inside the bounds.
	Autoscale bool `json:"autoscale,omitempty"`
	// Cache configures the read-through prediction cache:
	// {"enabled":true,"capacity":N,"ttl_seconds":S,"admit_threshold":T,
	// "half_life_seconds":H}, all but "enabled" defaulting when zero. A PUT
	// can enable, retune (entries kept), or disable it live; policy swaps,
	// replica scaling and fresh checkpoints invalidate cached results.
	Cache *rafiki.CacheSpec `json:"cache,omitempty"`
	// Backend selects the execution tier serving dispatched batches:
	// {"type":"sim"|"nn"|"http","url":U,"timeout_ms":T,"max_retries":R}
	// (url/timeout/retries for "http" only). Absent means "sim". A PUT with
	// a different block swaps the tier on the live runtime, draining
	// in-flight batches on the old backend before it closes.
	Backend *rafiki.BackendSpec `json:"backend,omitempty"`
}

// ReplicaField carries replica bounds on the wire in either shape:
// {"min":m,"max":M} — the object a GET'd spec contains, so a described
// resource can be edited and PUT straight back — or the legacy bare integer
// n of the pre-spec API, meaning a floor of n with the default ceiling
// (non-positive n means the default, as it always did).
type ReplicaField struct {
	rafiki.ReplicaBounds
}

// UnmarshalJSON implements the dual wire shape.
func (r *ReplicaField) UnmarshalJSON(b []byte) error {
	var n int
	if err := json.Unmarshal(b, &n); err == nil {
		if n < 0 {
			n = 0
		}
		r.ReplicaBounds = rafiki.ReplicaBounds{Min: n}
		return nil
	}
	return json.Unmarshal(b, &r.ReplicaBounds)
}

// MarshalJSON always writes the object form.
func (r ReplicaField) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.ReplicaBounds)
}

// Bounds builds the request field for replica bounds {min, max}; zero values
// take the server defaults.
func Bounds(min, max int) ReplicaField {
	return ReplicaField{rafiki.ReplicaBounds{Min: min, Max: max}}
}

// spec translates the wire request into the SDK's DeploymentSpec.
func (req InferenceRequest) spec(models []rafiki.ModelInstance) rafiki.DeploymentSpec {
	return rafiki.DeploymentSpec{
		Models:    models,
		Policy:    req.Policy,
		SLO:       req.SLOSeconds,
		QueueCap:  req.QueueCap,
		Replicas:  req.Replicas.ReplicaBounds,
		Autoscale: req.Autoscale,
		Cache:     req.Cache,
		Backend:   req.Backend,
	}
}

// resolveModels picks the instance list for a request: explicit models win,
// else the train job's best instances. ok=false means the error was written.
func (s *Server) resolveModels(w http.ResponseWriter, req InferenceRequest) ([]rafiki.ModelInstance, bool) {
	if len(req.Models) > 0 || req.TrainJobID == "" {
		return req.Models, true
	}
	models, err := s.sys.GetModels(req.TrainJobID)
	if err != nil {
		writeErr(w, statusFor(err, http.StatusConflict), err)
		return nil, false
	}
	return models, true
}

func (s *Server) handleInference(w http.ResponseWriter, r *http.Request) {
	var req InferenceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	models, ok := s.resolveModels(w, req)
	if !ok {
		return
	}
	job, err := s.sys.Deploy(req.spec(models))
	if err != nil {
		writeErr(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusCreated, job.Describe())
}

func (s *Server) handleInferenceList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.ListInference())
}

func (s *Server) handleInferenceDescribe(w http.ResponseWriter, r *http.Request) {
	job, err := s.sys.InferenceJobByID(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job.Describe())
}

func (s *Server) handleInferenceReconcile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req InferenceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// The resource must exist before anything in the body is resolved: an
	// unknown deployment id is 404 regardless of what the spec references.
	if _, err := s.sys.InferenceJobByID(id); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	models, ok := s.resolveModels(w, req)
	if !ok {
		return
	}
	desc, err := s.sys.ReconcileInference(id, req.spec(models))
	if err != nil {
		writeErr(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusOK, desc)
}

// ScaleRequest resizes a live deployment's replica pools: every model when
// Model is empty, else just the named one.
type ScaleRequest struct {
	Model    string `json:"model,omitempty"`
	Replicas int    `json:"replicas"`
}

// ScaleResponse reports the per-model replica counts after the resize.
type ScaleResponse struct {
	JobID    string         `json:"job_id"`
	Replicas map[string]int `json:"replicas"`
}

func (s *Server) handleInferenceScale(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req ScaleRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.sys.ScaleInference(id, req.Model, req.Replicas); err != nil {
		writeErr(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	job, err := s.sys.InferenceJobByID(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, ScaleResponse{JobID: id, Replicas: job.ReplicaCounts()})
}

func (s *Server) handleInferenceStop(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sys.StopInference(id); err != nil {
		writeErr(w, statusFor(err, http.StatusInternalServerError), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleInferenceStats(w http.ResponseWriter, r *http.Request) {
	job, err := s.sys.InferenceJobByID(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job.Stats())
}

// QueryRequest is a classification request: Image carries the payload (an
// image path, raw text, or base64 data — the simulation hashes it).
type QueryRequest struct {
	Image string `json:"img"`
}

// scanBufSize is the largest body read whole into a pooled buffer and scanned
// instead of decoded.
const scanBufSize = 4 << 10

var (
	scanBufs        = sync.Pool{New: func() any { return new([scanBufSize]byte) }}
	jsonContentType = []string{"application/json"}
)

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	buf := scanBufs.Get().(*[scanBufSize]byte)
	defer scanBufs.Put(buf)
	img, err := readQuery(w, r, buf[:])
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	if len(bytes.TrimSpace(img)) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("rest: query needs an img payload"))
		return
	}
	body, err := s.sys.QueryJSON(id, img)
	if err != nil {
		// Only a missing deployment is 404. A full queue is backpressure,
		// not a server fault: 429 with a Retry-After hint from the
		// runtime's recent drain rate. Shutdown is a transient 503, and
		// anything else — backend failures, a poisoned runtime — is a
		// genuine server fault.
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, rafiki.ErrNotFound):
			status = http.StatusNotFound
		case errors.Is(err, infer.ErrQueueFull):
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(id)))
			status = http.StatusTooManyRequests
		case errors.Is(err, infer.ErrClosed):
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, err)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// readQuery extracts a query body's img payload, which may alias buf. A body
// of known length that fits buf is read whole and, when it is exactly
// {"img":"…"} (see scanQuery), sliced without decoding. Every other body —
// and any chunked or longer one, bounded by maxBody — goes through
// json.Decoder, so what is accepted and every error text are the decoder's.
func readQuery(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	var body io.Reader
	if n := r.ContentLength; n >= 0 && n <= int64(len(buf)) {
		b := buf[:n]
		if _, err := io.ReadFull(r.Body, b); err != nil {
			return nil, err
		}
		if img, ok := scanQuery(b); ok {
			return img, nil
		}
		body = bytes.NewReader(b)
	} else {
		body = http.MaxBytesReader(w, r.Body, maxBody)
	}
	var req QueryRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return nil, err
	}
	return []byte(req.Image), nil
}

// scanQuery accepts exactly {"img":"…"} — JSON whitespace between tokens, and
// a value of printable ASCII without '"' or '\\', so the bytes are the decoded
// string — and returns the value's bytes. Whatever it accepts, json.Decoder
// accepts with the same img; it rejects everything else.
func scanQuery(b []byte) ([]byte, bool) {
	i := 0
	token := func(tok string) bool {
		for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
			i++
		}
		if len(b)-i < len(tok) || string(b[i:i+len(tok)]) != tok {
			return false
		}
		i += len(tok)
		return true
	}
	if !token("{") || !token(`"img"`) || !token(":") || !token(`"`) {
		return nil, false
	}
	start := i
	for i < len(b) && b[i] >= ' ' && b[i] <= '~' && b[i] != '"' && b[i] != '\\' {
		i++
	}
	img := b[start:i]
	if i == len(b) || b[i] != '"' {
		return nil, false
	}
	if i++; !token("}") || !token("") || i != len(b) {
		return nil, false
	}
	return img, true
}

// handleStats reports system-wide resource counts; with the durable control
// plane enabled it includes the journal block (records, bytes, segments,
// last_seq, fsyncs, fsync_p99_ms, chain_ok).
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Stats())
}

// handleJournal streams the journal's records, optionally from ?since=N
// (records with sequence > N), re-verifying the chain as it reads.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("rest: bad since %q: %w", q, err))
			return
		}
		since = v
	}
	recs, err := s.sys.JournalRecords(since)
	if err != nil {
		writeErr(w, journalStatus(err), err)
		return
	}
	if recs == nil {
		recs = []journal.Record{} // an empty tail is [], not null
	}
	writeJSON(w, http.StatusOK, recs)
}

// handleJournalVerify re-walks the whole hash chain and reports the result —
// chain_ok with the record count, or the first bad sequence and why.
func (s *Server) handleJournalVerify(w http.ResponseWriter, _ *http.Request) {
	res, err := s.sys.JournalVerify()
	if err != nil {
		writeErr(w, journalStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// journalStatus maps journal-endpoint errors: a server without a journal has
// no such resource (404); a read failure mid-walk is a server fault.
func journalStatus(err error) int {
	if errors.Is(err, rafiki.ErrNoJournal) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// retryAfter turns a rejected query's drain estimate into whole Retry-After
// seconds, clamped to [1, 60]; 1 when the runtime has no estimate yet.
func (s *Server) retryAfter(jobID string) int {
	job, err := s.sys.InferenceJobByID(jobID)
	if err != nil {
		return 1
	}
	secs := int(math.Ceil(job.RetryAfterSeconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

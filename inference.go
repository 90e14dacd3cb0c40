package rafiki

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rafiki/internal/cluster"
	"rafiki/internal/ensemble"
	"rafiki/internal/infer"
	"rafiki/internal/nn"
	"rafiki/internal/predcache"
	"rafiki/internal/rl"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// InferenceJob is a deployed ensemble serving queries (Figure 2's infer.py)
// through a wall-clock batching runtime: concurrent Query callers are
// grouped into shared batches by a scheduling Policy (Section 5), exactly
// the machinery the serving simulator evaluates. Each deployed model runs as
// one or more replica containers registered with the cluster manager
// (Section 6); Scale adds or removes replicas on the live runtime.
type InferenceJob struct {
	ID     string
	Models []ModelInstance
	// Classes is the label vocabulary (from the training dataset).
	Classes []string
	// queries counts served requests; read and written concurrently by
	// Query callers holding only the job pointer.
	queries atomic.Uint64

	byName  map[string]ModelInstance
	runtime *infer.Runtime
	dep     *infer.Deployment
	// cache is the read-through prediction cache, nil when the spec has no
	// enabled cache block. An atomic pointer so Query (which never takes
	// job.mu) can read it lock-free while a reconcile swaps or retunes it.
	cache atomic.Pointer[predcache.Cache]
	// speedup converts timeline (profiled) seconds into wall seconds for
	// client-facing hints like RetryAfterSeconds.
	speedup float64

	// mu guards the replica/container bookkeeping (scale and teardown), the
	// reconciled spec, and the policy/autoscaler wiring.
	mu       sync.Mutex
	spec     DeploymentSpec
	replicas []int // per-model container counts, parallel to Models
	stopped  bool
	// rlPolicy is the online agent when spec.Policy is PolicyRL, nil
	// otherwise; autoStop, when non-nil, stops the running autoscale loop.
	rlPolicy *rl.Online
	autoStop chan struct{}
}

// masterContainer is the job's cluster master (the queue/dispatcher anchor
// that replica placement colocates toward).
func (j *InferenceJob) masterContainer() string { return j.ID + "/master" }

// replicaContainer names replica r of model mi.
func (j *InferenceJob) replicaContainer(mi, r int) string {
	return fmt.Sprintf("%s/%s/replica-%d", j.ID, j.Models[mi].Model, r)
}

// ReplicaCounts returns the live per-model replica counts.
func (j *InferenceJob) ReplicaCounts() map[string]int {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int, len(j.Models))
	for i, m := range j.Models {
		out[m.Model] = j.replicas[i]
	}
	return out
}

// InferenceStats is a snapshot of a deployment's serving metrics, surfaced
// over GET /api/v1/inference/{id}/stats: the runtime's engine counters
// (served/overdue/dropped/dispatches, latency percentiles in profiled
// seconds — batching shows as dispatches < served) plus the SDK-level
// completed-query count.
type InferenceStats struct {
	// Queries counts completed System.Query calls.
	Queries uint64 `json:"queries"`
	// RetryAfterSeconds is the backpressure hint for rejected (queue-full)
	// requests: the wall-clock seconds until the queue should have drained
	// a slot, derived from the runtime's recent drain rate and the serving
	// clock speedup. 0 means no estimate (nothing has drained recently).
	RetryAfterSeconds float64 `json:"retry_after_seconds"`
	// Cache is the prediction cache's counter snapshot (hit rate, hot keys,
	// staleness evictions, singleflight collapses); absent when the
	// deployment has no enabled cache block.
	Cache *predcache.Stats `json:"cache,omitempty"`
	infer.Stats
}

// maxReplicasPerModel caps replica pools against runaway scale requests.
const maxReplicasPerModel = 64

// Deploy realizes a declarative DeploymentSpec as a serving job; Figure 2's
// rafiki.Inference(models).run() is Deploy(DeploymentSpec{Models: models}).
// Deployment is instant: the parameters are already in the shared parameter
// server — the paper's point about unifying the two services. The returned
// job owns a batching runtime driven by the spec's policy — PolicyGreedy
// batches every query through the whole ensemble per Algorithm 3; PolicyRL
// installs the actor-critic scheduler, which keeps training online from the
// Equation 7 rewards the runtime feeds back on the live path; PolicyAsync
// serves each batch with a single model round-robin (no ensemble, maximum
// throughput).
//
// Each model runs as spec.Replicas.Min worker containers registered with the
// cluster manager (placement prefers colocation with the job's master,
// Section 6.1); a container failure takes its replica out of dispatch until
// the manager restarts it (Section 6.3). ScaleInference resizes pools
// manually inside the spec bounds, spec.Autoscale drives them from the
// runtime's backpressure signals, and ReconcileInference moves the live job
// to a changed spec.
func (s *System) Deploy(spec DeploymentSpec) (*InferenceJob, error) {
	return s.deploy(spec, "", nil, true)
}

// deploy is Deploy with the journal switch: live calls mint an ID and append
// a deploy record — carrying the defaulted spec and the resolved class
// vocabulary, so replay re-executes it without re-deriving anything — before
// any container launches; replay passes the recorded ID/classes and
// record=false.
func (s *System) deploy(spec DeploymentSpec, forceID string, forceClasses []string, record bool) (*InferenceJob, error) {
	spec = spec.withDefaults(s.opts)
	if err := spec.validate(); err != nil {
		return nil, err
	}
	models := spec.Models
	// Validate every checkpoint is fetchable from the parameter server.
	classes := forceClasses
	for _, m := range models {
		if _, err := s.bestCheckpoint(m.Model); err != nil {
			return nil, fmt.Errorf("rafiki: model %s not deployable: %w", m.Model, err)
		}
	}
	// Recover the label vocabulary from the training job encoded in the
	// checkpoint key ("<jobID>/<model>/<trial>").
	for _, m := range models {
		if classes != nil {
			break
		}
		parts := strings.SplitN(m.CheckpointKey, "/", 2)
		if len(parts) == 0 {
			continue
		}
		s.mu.Lock()
		job, ok := s.trainJobs[parts[0]]
		s.mu.Unlock()
		if ok {
			if ds, err := s.Dataset(job.Conf.Data); err == nil {
				if len(ds.Classes) == 0 {
					return nil, fmt.Errorf("rafiki: dataset %q has an empty class vocabulary; cannot deploy", job.Conf.Data)
				}
				classes = ds.Classes
				break
			}
		}
	}
	if classes == nil {
		classes = []string{"negative", "positive"} // generic fallback
	}
	if len(classes) == 0 {
		// Defense in depth: predict/truthFor index (and mod) by the class
		// count, so an empty vocabulary must never reach a live job.
		return nil, fmt.Errorf("rafiki: inference job needs a non-empty class vocabulary")
	}
	id := s.mintOrAdopt("infer", forceID)
	if record {
		if err := s.journalAppend(kindDeploy, deployRec{ID: id, Spec: spec, Classes: classes}); err != nil {
			return nil, err
		}
	}
	job := &InferenceJob{
		ID:       id,
		Models:   append([]ModelInstance(nil), models...),
		Classes:  append([]string(nil), classes...),
		byName:   make(map[string]ModelInstance, len(models)),
		speedup:  s.opts.ServeSpeedup,
		spec:     spec,
		replicas: make([]int, len(models)),
	}
	for _, m := range models {
		job.byName[m.Model] = m
	}

	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Model
	}
	dep, err := infer.NewDeployment(names, servingBatches, spec.SLO, 1)
	if err != nil {
		return nil, fmt.Errorf("rafiki: deployment: %w", err)
	}
	dep.Replicas = make([]int, len(names))
	for i := range dep.Replicas {
		dep.Replicas[i] = spec.Replicas.Min
	}
	job.dep = dep
	policy, online, err := s.buildPolicy(spec, dep, job.ID)
	if err != nil {
		return nil, fmt.Errorf("rafiki: policy: %w", err)
	}
	job.rlPolicy = online
	backend, combine, err := s.buildBackend(spec, job)
	if err != nil {
		return nil, fmt.Errorf("rafiki: backend: %w", err)
	}
	rt, err := infer.NewRuntime(
		dep,
		policy,
		ensemble.NewAccuracyTable(zoo.NewPredictor(s.opts.Seed), 2000),
		combine,
		infer.RuntimeConfig{
			Timeline: &sim.WallTimeline{Speedup: s.opts.ServeSpeedup},
			QueueCap: spec.QueueCap,
			Backend:  backend,
		},
	)
	if err != nil {
		return nil, fmt.Errorf("rafiki: runtime: %w", err)
	}
	job.runtime = rt
	if cfg, enabled := cacheConfigFor(spec.Cache); enabled {
		job.cache.Store(predcache.New(cfg))
	}

	// Register the serving containers: a master (the queue/dispatcher,
	// which replica placement colocates toward) plus one worker per model
	// replica wired back into dispatch availability.
	if _, err := s.cluster.Launch(cluster.Spec{
		Name: job.masterContainer(),
		Kind: cluster.KindMaster,
		Job:  job.ID,
	}, 0); err != nil {
		rt.Close()
		return nil, fmt.Errorf("rafiki: launch serving master: %w", err)
	}
	for mi := range names {
		for r := 0; r < spec.Replicas.Min; r++ {
			if err := s.launchReplica(job, mi, r); err != nil {
				s.releaseContainers(job)
				rt.Close()
				return nil, err
			}
			job.replicas[mi]++
		}
	}

	if spec.Autoscale {
		job.autoStop = make(chan struct{})
		go s.autoscaleLoop(job, job.autoStop)
	}

	s.mu.Lock()
	s.inferJobs[job.ID] = job
	s.mu.Unlock()
	return job, nil
}

// launchReplica registers replica r of model mi with the cluster manager,
// wiring failure detection and restart back into the runtime's replica
// availability. The hooks ignore errors: the replica may have been scaled
// away or the runtime closed by the time the cluster reports on it.
func (s *System) launchReplica(job *InferenceJob, mi, r int) error {
	rt := job.runtime
	model := job.Models[mi].Model
	_, err := s.cluster.Launch(cluster.Spec{
		Name: job.replicaContainer(mi, r),
		Kind: cluster.KindWorker,
		Job:  job.ID,
		// Failure and restart land on the audit ledger (best-effort, never
		// replayed): recovery boots fresh containers, but the tamper-evident
		// history of what failed when survives restarts.
		OnFail: func() {
			_ = rt.SetReplicaDown(mi, r, true)
			s.journalAudit(kindReplicaDown, replicaEventRec{Job: job.ID, Model: model, Replica: r})
		},
		OnRestart: func() {
			_ = rt.SetReplicaDown(mi, r, false)
			s.journalAudit(kindReplicaRestart, replicaEventRec{Job: job.ID, Model: model, Replica: r})
		},
	}, 0)
	if err != nil {
		return fmt.Errorf("rafiki: launch replica %s: %w", job.replicaContainer(mi, r), err)
	}
	return nil
}

// releaseContainers removes the job's registered containers (master plus
// every replica recorded in job.replicas), returning the first error.
func (s *System) releaseContainers(job *InferenceJob) error {
	var firstErr error
	remove := func(name string) {
		if err := s.cluster.Remove(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	remove(job.masterContainer())
	for mi := range job.Models {
		for r := 0; r < job.replicas[mi]; r++ {
			remove(job.replicaContainer(mi, r))
		}
	}
	return firstErr
}

// ScaleInference resizes a live deployment's replica pools to replicas per
// model (every model when model is "", else just the named one). Scaling up
// launches new worker containers and immediately re-runs a dispatch decision
// so queued requests flow onto the new capacity; scaling down stops
// dispatching to the dropped replicas, releases their containers, and lets
// batches already in flight complete.
//
// Scale-down always drops the highest-indexed replicas (container names are
// positional, so slot indices must stay dense). If that leaves a surviving
// replica that is currently failed, the model honestly reports no live
// capacity until the cluster manager's Tick restarts the container — scale
// down around a known-dead low-indexed replica only after recovery. Models
// are resized one at a time; on error, completed models keep their new size
// and the failing model is rolled back.
//
// Manual scaling respects the deployment spec's replica ceiling (raise it
// with ReconcileInference first); it may go below Replicas.Min, since an
// operator scaling down by hand outranks the declarative floor.
func (s *System) ScaleInference(id, model string, replicas int) error {
	return s.scaleInference(id, model, replicas, true)
}

// scaleInference is ScaleInference with the journal switch. The scale record
// is appended under job.mu after every validation passes, so journal order
// matches apply order and replay fails only where the original call failed.
func (s *System) scaleInference(id, model string, replicas int, record bool) error {
	job, err := s.InferenceJobByID(id)
	if err != nil {
		return err
	}
	if replicas < 1 {
		return fmt.Errorf("rafiki: scale %s: replicas must be at least 1, got %d", id, replicas)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if max := job.spec.Replicas.Max; replicas > max {
		return fmt.Errorf("rafiki: scale %s: replicas %d exceeds the spec's per-model bound %d", id, replicas, max)
	}
	if job.stopped {
		return fmt.Errorf("rafiki: %w %q", ErrUnknownInferenceJob, id)
	}
	targets := make([]int, 0, len(job.Models))
	if model == "" {
		for mi := range job.Models {
			targets = append(targets, mi)
		}
	} else {
		mi := -1
		for i, m := range job.Models {
			if m.Model == model {
				mi = i
				break
			}
		}
		if mi < 0 {
			return fmt.Errorf("rafiki: %w: scale %s: model %q not deployed", ErrNotFound, id, model)
		}
		targets = append(targets, mi)
	}
	if record {
		if err := s.journalAppend(kindScale, scaleRec{ID: id, Model: model, Replicas: replicas}); err != nil {
			return err
		}
	}
	for _, mi := range targets {
		if err := s.scaleModelLocked(job, mi, replicas); err != nil {
			return err
		}
	}
	return nil
}

// scaleModelLocked resizes one model's replica pool; job.mu is held. A
// failed scale-up is rolled back (launched containers removed, engine pool
// and accounting restored) so the cluster, engine, and replica counts never
// diverge.
func (s *System) scaleModelLocked(job *InferenceJob, mi, target int) error {
	cur := job.replicas[mi]
	model := job.Models[mi].Model
	if target > cur {
		fail := func(launched int, err error) error {
			for r := launched - 1; r >= cur; r-- {
				_ = s.cluster.Remove(job.replicaContainer(mi, r))
			}
			_ = job.runtime.SetReplicas(mi, cur) // drop the staged slots
			return err
		}
		for r := cur; r < target; r++ {
			// Stage the engine slot (down) before the container exists so
			// a failure during launch addresses a live slot instead of
			// being dropped, then bring it up once the container runs.
			if _, err := job.runtime.AddReplica(mi); err != nil {
				return fail(r, fmt.Errorf("rafiki: scale %s/%s: %w", job.ID, model, err))
			}
			if err := s.launchReplica(job, mi, r); err != nil {
				return fail(r, err)
			}
			if err := job.runtime.SetReplicaDown(mi, r, false); err != nil {
				return fail(r+1, fmt.Errorf("rafiki: scale %s/%s: %w", job.ID, model, err))
			}
		}
		job.replicas[mi] = target
		// Replica topology changed — an invalidation event for the
		// prediction cache (manual scale, reconcile clamp, or autoscaler).
		job.invalidateCache()
		return nil
	}
	if target < cur {
		// Shrink the engine first (no new work onto dying replicas), then
		// release the containers; in-flight batches still complete.
		if err := job.runtime.SetReplicas(mi, target); err != nil {
			return fmt.Errorf("rafiki: scale %s/%s: %w", job.ID, model, err)
		}
		job.replicas[mi] = target
		job.invalidateCache()
		for r := cur - 1; r >= target; r-- {
			if err := s.cluster.Remove(job.replicaContainer(mi, r)); err != nil {
				return fmt.Errorf("rafiki: scale %s/%s: %w", job.ID, model, err)
			}
		}
	}
	return nil
}

// StopInference tears down a deployment: it unregisters the job (later
// queries see ErrUnknownInferenceJob), stops its autoscale loop, closes its
// runtime — queued futures fail with infer.ErrClosed, in-flight batches
// complete, an armed deadline wake fires as a no-op — and releases the job's
// cluster containers.
func (s *System) StopInference(id string) error {
	return s.stopInference(id, true)
}

// stopInference is StopInference with the journal switch. The record is
// appended while s.mu is held, so the registry delete and the ledger land in
// the same order every concurrent stop observes.
func (s *System) stopInference(id string, record bool) error {
	s.mu.Lock()
	job, ok := s.inferJobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("rafiki: %w %q", ErrUnknownInferenceJob, id)
	}
	if record {
		if err := s.journalAppend(kindStopInference, stopInferenceRec{ID: id}); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	delete(s.inferJobs, id)
	s.mu.Unlock()
	return s.teardownJob(job)
}

// teardownJob stops a deployment's machinery — autoscale loop, runtime,
// cluster containers — without touching the registry or the journal; both
// StopInference (journaled operator intent) and System.Close (process
// shutdown, deliberately unjournaled) funnel through it.
func (s *System) teardownJob(job *InferenceJob) error {
	job.mu.Lock()
	job.stopped = true
	if job.autoStop != nil {
		close(job.autoStop)
		job.autoStop = nil
	}
	job.mu.Unlock()
	job.runtime.Close()
	job.mu.Lock()
	defer job.mu.Unlock()
	return s.releaseContainers(job)
}

// servingBatches are the runtime's candidate batch sizes. Unlike the
// simulator experiments (which start at 16, reproducing the paper's GPU
// setup), the online path includes batch 1 so Algorithm 3's deadline rule
// can flush a lone interactive query instead of stalling below the smallest
// candidate.
var servingBatches = []int{1, 2, 4, 8, 16}

// ErrUnknownInferenceJob reports a lookup of an undeployed inference job ID
// (wrapped with the offending ID; match with errors.Is). It wraps ErrNotFound
// so the REST layer's uniform 404 mapping catches it.
var ErrUnknownInferenceJob = fmt.Errorf("%w: unknown inference job", ErrNotFound)

// InferenceJobByID returns a deployed job.
func (s *System) InferenceJobByID(id string) (*InferenceJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.inferJobs[id]
	if !ok {
		return nil, fmt.Errorf("rafiki: %w %q", ErrUnknownInferenceJob, id)
	}
	return job, nil
}

// Stats snapshots the job's serving metrics.
func (j *InferenceJob) Stats() InferenceStats {
	st := j.runtime.Stats()
	out := InferenceStats{Queries: j.queries.Load(), Stats: st}
	if st.DrainRate > 0 {
		out.RetryAfterSeconds = retryAfter(st.QueueLen, st.DrainRate, j.speedup)
	}
	if c := j.cache.Load(); c != nil {
		cs := c.Snapshot()
		out.Cache = &cs
	}
	return out
}

// RetryAfterSeconds estimates the wall seconds until the queue drains a
// slot for a retried request (0 = no recent drain to estimate from). It
// reads only the runtime's backpressure counters, so the HTTP 429 path can
// call it per rejected request without snapshotting full stats.
func (j *InferenceJob) RetryAfterSeconds() float64 {
	queueLen, drain := j.runtime.Backpressure()
	if drain <= 0 {
		return 0
	}
	return retryAfter(queueLen, drain, j.speedup)
}

// retryAfter converts a queue depth and drain rate (timeline seconds) into
// wall seconds until one slot should free for a retried request.
func retryAfter(queueLen int, drainRate, speedup float64) float64 {
	return float64(queueLen+1) / drainRate / speedup
}

// QueryResult is a prediction (Figure 2's query.py response).
type QueryResult struct {
	// Label is the predicted class name.
	Label string `json:"label"`
	// Confidence is the deployed ensemble's estimated accuracy.
	Confidence float64 `json:"confidence"`
	// Votes maps each model to its individual prediction.
	Votes map[string]string `json:"votes"`
}

// answer is a served result and, when compute built it, its REST body. The
// prediction cache stores *answer values, so a hit never encodes again.
type answer struct {
	res  *QueryResult
	wire []byte
}

// Query classifies one payload against a deployed ensemble using majority
// voting with the best-model tie-break (Section 5.2).
//
// The request travels the real serving path: it is enqueued into the job's
// runtime, the scheduling policy batches it with concurrent queries, and the
// call blocks on the batch's future until the (profiled) service time
// elapses. Predictions are simulated (DESIGN.md §2): each deployed model
// answers correctly with probability equal to its trained validation
// accuracy, with errors correlated across models through a shared
// per-request difficulty draw. The ground-truth label is recovered from the
// payload when it embeds a class name (handy for demos: querying
// "my_pizza.jpg" grounds the truth at "pizza"), otherwise it is a
// deterministic hash of the payload.
// When the deployment's spec enables the prediction cache, the query first
// consults it: a fresh hit is served without touching the runtime at all, a
// hot-key miss in flight collapses onto the concurrent leader's submission,
// and only cold keys or singleflight leaders travel the batching path; every
// answer the cache holds is handed out as the caller's own copy. With no
// cache block the path above is unchanged.
func (s *System) Query(jobID string, payload []byte) (*QueryResult, error) {
	a, shared, err := s.query(jobID, payload)
	if err != nil || !shared {
		return a.res, err
	}
	return a.res.clone(), nil
}

// QueryJSON is Query answered in its REST wire form: the result's JSON
// encoding plus a newline, byte-identical to json.NewEncoder(w).Encode of the
// QueryResult. A cache hit returns the body stored with the entry — shared
// and read-only — and decodes, clones and copies nothing, so payload may be a
// buffer the caller reuses once the call returns. A miss, or a deployment
// without a cache, encodes once.
func (s *System) QueryJSON(jobID string, payload []byte) ([]byte, error) {
	a, _, err := s.query(jobID, payload)
	if err != nil || a.wire != nil {
		return a.wire, err
	}
	return encodeWire(a.res)
}

// query is the serving path behind Query and QueryJSON. shared reports that
// the answer is the prediction cache's stored value — every outcome but a
// cold compute — which the caller must neither mutate nor hand out uncopied.
func (s *System) query(jobID string, payload []byte) (a answer, shared bool, err error) {
	job, err := s.InferenceJobByID(jobID)
	if err != nil {
		return a, false, err
	}
	if len(payload) == 0 {
		return a, false, fmt.Errorf("rafiki: empty query payload")
	}
	out := predcache.ComputedCold
	if c := job.cache.Load(); c != nil {
		var v any
		v, out, err = c.GetOrCompute(payloadHash(payload), payload, func() (any, error) {
			return job.compute(payload)
		})
		if err == nil {
			a = *v.(*answer)
		}
	} else {
		a.res, err = job.submitAndWait(bytes.Clone(payload))
	}
	if err != nil {
		return answer{}, false, fmt.Errorf("rafiki: query %s: %w", jobID, err)
	}
	job.queries.Add(1)
	return a, out != predcache.ComputedCold, nil
}

// compute is the one site that builds an answer the prediction cache may
// store: it serves a private copy of payload (the caller's may be borrowed)
// and encodes the REST body beside the result, so every stored entry —
// admitted through Query or QueryJSON alike — has its body.
func (j *InferenceJob) compute(payload []byte) (any, error) {
	res, err := j.submitAndWait(bytes.Clone(payload))
	if err != nil {
		return nil, err
	}
	wire, err := encodeWire(res)
	return &answer{res: res, wire: wire}, err
}

// encodeWire is json.NewEncoder(w).Encode's output for res, as one slice.
func encodeWire(res *QueryResult) ([]byte, error) {
	b, err := json.Marshal(res)
	return append(b, '\n'), err
}

// clone deep-copies a stored result for a caller who may mutate it (the Votes
// map in particular).
func (r *QueryResult) clone() *QueryResult {
	cp := *r
	cp.Votes = maps.Clone(r.Votes)
	return &cp
}

// submitAndWait is the uncached serving path: enqueue the payload into the
// job's runtime, block on the batch future, and release its slot back to
// the completion pool — the steady-state query path recycles rather than
// allocates its per-request state.
func (j *InferenceJob) submitAndWait(payload []byte) (*QueryResult, error) {
	fut, err := j.runtime.Submit(payload)
	if err != nil {
		return nil, err
	}
	res, err := fut.Wait()
	fut.Release()
	if err != nil {
		return nil, err
	}
	return res.(*QueryResult), nil
}

// cacheConfigFor translates a spec's cache block (defaulted and validated)
// into the predcache configuration.
func cacheConfigFor(c *CacheSpec) (predcache.Config, bool) {
	if c == nil || !c.Enabled {
		return predcache.Config{}, false
	}
	return predcache.Config{
		Capacity:       c.Capacity,
		TTL:            c.TTLSeconds,
		AdmitThreshold: c.AdmitThreshold,
		HalfLife:       c.HalfLifeSeconds,
	}, true
}

// invalidateCache bumps the prediction cache's epoch (a no-op without a
// cache): every entry written before the bump is dropped at its next lookup
// instead of being served.
func (j *InferenceJob) invalidateCache() {
	if c := j.cache.Load(); c != nil {
		c.Invalidate()
	}
}

// In-process nn backend shape: payloads featurize into a bag-of-bytes vector
// of nnBackendFeatures buckets, forwarded through one hidden layer onto a
// class-count head.
const (
	nnBackendFeatures = 16
	nnBackendHidden   = 24
)

// buildBackend translates a defaulted, validated backend block into the
// runtime's execution tier. BackendSim (or no block) pairs a SimBackend,
// which only paces the profiled service time, with the job's executeBatch,
// which simulates the ensemble's answers from the payloads. BackendNN builds
// one deterministically seeded internal/nn network per model (system seed ×
// job ID × model name); BackendHTTP a retrying remote client. Both pair with
// the job's vote combiner, which folds per-model class indices into
// QueryResults.
func (s *System) buildBackend(spec DeploymentSpec, job *InferenceJob) (infer.Backend, infer.CombineFunc, error) {
	b := spec.Backend
	if b == nil || b.Type == BackendSim {
		return &infer.SimBackend{}, job.executeBatch, nil
	}
	switch b.Type {
	case BackendNN:
		nets := make(map[string]*nn.MLP, len(job.Models))
		for _, m := range job.Models {
			rng := sim.NewRNG(s.opts.Seed).SplitNamed(job.ID + "/backend/" + m.Model)
			nets[m.Model] = nn.NewMLP(
				[]int{nnBackendFeatures, nnBackendHidden, len(job.Classes)},
				nn.ReLU, nn.Linear, rng)
		}
		backend, err := infer.NewNNBackend(encodeBagOfBytes, nets)
		if err != nil {
			return nil, nil, err
		}
		return backend, job.combineClassVotes, nil
	case BackendHTTP:
		retries := b.MaxRetries
		if retries < 0 {
			retries = 0 // spec -1 means "no retries"
		}
		return &infer.HTTPBackend{
			URL:        b.URL,
			Timeout:    time.Duration(b.TimeoutMS) * time.Millisecond,
			MaxRetries: retries,
		}, job.combineClassVotes, nil
	}
	return nil, nil, fmt.Errorf("rafiki: unknown backend type %q", b.Type)
}

// encodeBagOfBytes featurizes a request payload for the nn backend: byte
// counts folded into nnBackendFeatures buckets, normalized by length so the
// vector scale is payload-size invariant. dst is the zeroed input row.
func encodeBagOfBytes(payload any, dst []float64) error {
	p, ok := payload.([]byte)
	if !ok {
		return fmt.Errorf("rafiki: nn backend payload is %T, not []byte", payload)
	}
	for _, c := range p {
		dst[int(c)%nnBackendFeatures]++
	}
	if len(p) > 0 {
		inv := 1 / float64(len(p))
		for i := range dst {
			dst[i] *= inv
		}
	}
	return nil
}

// combineClassVotes is the real-backend CombineFunc: preds[k][i] is model
// k's class index for request i (int from the nn backend, float64 off the
// HTTP wire), voted into a QueryResult per Section 5.2 with the deployed
// accuracies as vote weights.
func (j *InferenceJob) combineClassVotes(ids []uint64, payloads []any, models []string, preds [][]any) ([]any, error) {
	accs, err := j.memberAccuracies(models)
	if err != nil {
		return nil, err
	}
	conf := ensembleConfidence(accs)
	out := make([]any, len(ids))
	classes := make([]int, len(models))
	for i := range ids {
		votes := make(map[string]string, len(models))
		for k := range models {
			c, err := classIndex(preds[k][i], len(j.Classes))
			if err != nil {
				return nil, fmt.Errorf("rafiki: backend prediction from model %s: %w", models[k], err)
			}
			classes[k] = c
			votes[models[k]] = j.Classes[c]
		}
		winner, err := ensemble.Vote(classes, accs)
		if err != nil {
			return nil, err
		}
		out[i] = &QueryResult{
			Label:      j.Classes[winner],
			Confidence: conf,
			Votes:      votes,
		}
	}
	return out, nil
}

// memberAccuracies resolves a batch's serving models to their deployed
// accuracies — the vote weights, and the input of the confidence every
// answer in the batch shares — once per batch.
func (j *InferenceJob) memberAccuracies(models []string) ([]float64, error) {
	accs := make([]float64, len(models))
	for k, name := range models {
		m, ok := j.byName[name]
		if !ok {
			return nil, fmt.Errorf("rafiki: batch model %q not deployed", name)
		}
		accs[k] = m.Accuracy
	}
	return accs, nil
}

// classIndex coerces one backend prediction into a class index, rejecting
// anything a well-behaved backend would not produce (a remote endpoint
// answering out of range fails the batch rather than mislabeling it).
func classIndex(v any, n int) (int, error) {
	var c int
	switch t := v.(type) {
	case int:
		c = t
	case float64:
		c = int(t)
		if float64(c) != t {
			return 0, fmt.Errorf("non-integer class %v", t)
		}
	default:
		return 0, fmt.Errorf("unsupported prediction type %T", v)
	}
	if c < 0 || c >= n {
		return 0, fmt.Errorf("class %d outside [0, %d)", c, n)
	}
	return c, nil
}

// executeBatch is the sim tier's infer.CombineFunc: it computes the
// simulated prediction of every request in a dispatched batch against the
// model subset the policy selected. SimBackend passes yield no predictions,
// so preds is ignored.
func (j *InferenceJob) executeBatch(ids []uint64, payloads []any, models []string, _ [][]any) ([]any, error) {
	accs, err := j.memberAccuracies(models)
	if err != nil {
		return nil, err
	}
	conf := ensembleConfidence(accs)
	out := make([]any, len(ids))
	for i := range ids {
		payload, ok := payloads[i].([]byte)
		if !ok {
			return nil, fmt.Errorf("rafiki: batch payload %d is %T, not []byte", i, payloads[i])
		}
		res, err := j.predict(payload, models, accs, conf)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// predict simulates one request's per-model predictions and votes them into
// a QueryResult. Predictions are a pure function of (payload, model name),
// so a query's answer does not depend on which batch served it. accs are the
// models' accuracies and conf the batch's shared confidence
// (memberAccuracies, ensembleConfidence).
func (j *InferenceJob) predict(payload []byte, models []string, accs []float64, conf float64) (*QueryResult, error) {
	truth := j.truthFor(payload)

	// Shared difficulty draw (see zoo.Predictor for the construction).
	req := sim.NewRNG(int64(payloadHash(payload)) ^ 0x5f3759df)
	sharedU := req.Float64()
	sharedDistractor := otherClass(req, len(j.Classes), truth)
	const rho = 0.75

	preds := make([]int, len(models))
	votes := map[string]string{}
	for i, name := range models {
		mr := sim.NewRNG(int64(payloadHash(payload)) ^ int64(payloadHash([]byte(name))))
		u := sharedU
		if !mr.Bernoulli(rho) {
			u = mr.Float64()
		}
		if u < accs[i] {
			preds[i] = truth
		} else if mr.Bernoulli(0.4) {
			preds[i] = sharedDistractor
		} else {
			preds[i] = otherClass(mr, len(j.Classes), truth)
		}
		votes[name] = j.Classes[preds[i]]
	}
	winner, err := ensemble.Vote(preds, accs)
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Label:      j.Classes[winner],
		Confidence: conf,
		Votes:      votes,
	}, nil
}

// truthFor grounds the simulated true label: an embedded class name wins,
// otherwise a payload hash.
func (j *InferenceJob) truthFor(payload []byte) int {
	lower := strings.ToLower(string(payload))
	// Longest class-name match wins ("seafood_pizza" should match the most
	// specific embedded class).
	best, bestLen := -1, 0
	for i, c := range j.Classes {
		if strings.Contains(lower, strings.ToLower(c)) && len(c) > bestLen {
			best, bestLen = i, len(c)
		}
	}
	if best >= 0 {
		return best
	}
	return int(payloadHash(payload) % uint64(len(j.Classes)))
}

func otherClass(r *sim.RNG, n, truth int) int {
	if n < 2 {
		return truth
	}
	d := r.Intn(n - 1)
	if d >= truth {
		d++
	}
	return d
}

// ensembleConfidence estimates ensemble accuracy from member accuracies:
// a majority-vote upper bound blended toward the best member.
func ensembleConfidence(accs []float64) float64 {
	if len(accs) == 0 {
		return 0
	}
	s := append([]float64(nil), accs...)
	sort.Float64s(s)
	best := s[len(s)-1]
	mean := 0.0
	for _, a := range s {
		mean += a
	}
	mean /= float64(len(s))
	if len(s) == 1 {
		return best
	}
	boost := 0.02 * float64(len(s)-1)
	c := best + boost*mean
	if c > 0.99 {
		c = 0.99
	}
	return c
}

func payloadHash(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

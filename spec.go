package rafiki

import (
	"fmt"
	"sort"
	"time"

	"rafiki/internal/infer"
	"rafiki/internal/predcache"
	"rafiki/internal/rl"
	"rafiki/internal/sim"
)

// Serving policies a DeploymentSpec can name.
const (
	// PolicyGreedy is the full-ensemble greedy scheduler (Algorithm 3 over
	// all deployed models) — every query is answered by the whole ensemble.
	PolicyGreedy = "greedy"
	// PolicyRL is the actor-critic scheduler of Section 5.2, training online
	// from Equation 7 rewards on the live serving path: under load it drops
	// models from batches to keep requests inside the SLO.
	PolicyRL = "rl"
	// PolicyAsync is the asynchronous baseline of Section 7.2.2: each batch
	// is served by a single model (round-robin over the free ones), trading
	// ensemble accuracy for maximum throughput — the no-ensemble
	// high-throughput mode.
	PolicyAsync = "async"
)

// ReplicaBounds bounds each model's replica pool. A deployment starts at Min
// replicas per model; manual scaling and the autoscaler operate inside
// [Min, Max].
type ReplicaBounds struct {
	// Min is the per-model replica floor (default 1).
	Min int `json:"min"`
	// Max is the per-model replica ceiling (default maxReplicasPerModel).
	Max int `json:"max"`
}

// DeploymentSpec is the declarative description of an inference deployment —
// the desired state the system realizes and keeps reconciling against. It is
// the body of POST /api/v1/inference, the mutable part of PUT
// /api/v1/inference/{id}, and what GET /api/v1/inference/{id} echoes back.
//
// Zero values mean defaults (greedy policy, the system's ServeSLO, a
// 4096-slot queue, one replica per model, no autoscaling):
// Deploy(DeploymentSpec{Models: models}) is the paper's
// rafiki.Inference(models).
type DeploymentSpec struct {
	// Models are the trained instances to deploy. Immutable after
	// deployment: a reconcile may leave it empty (keep the deployed set) but
	// must not name a different set.
	Models []ModelInstance `json:"models"`
	// Policy selects the dispatch scheduler: PolicyGreedy (default),
	// PolicyRL, or PolicyAsync. Reconciling to a different policy swaps the
	// scheduler on the live runtime without dropping queued requests.
	Policy string `json:"policy"`
	// SLO is the latency SLO τ in profiled seconds (default
	// Options.ServeSLO): the deadline Algorithm 3 batches under and the
	// overdue threshold of Equation 7.
	SLO float64 `json:"slo_seconds"`
	// QueueCap bounds the request queue (default 4096). Arrivals beyond it
	// are rejected with infer.ErrQueueFull (HTTP 429 + Retry-After).
	QueueCap int `json:"queue_cap"`
	// Replicas bounds each model's replica pool.
	Replicas ReplicaBounds `json:"replicas"`
	// Autoscale drives the replica count inside [Replicas.Min, Replicas.Max]
	// from the runtime's per-model backlog and queue-growth signals: the
	// scale step is proportional to each model's standing backlog, and a
	// drained idle pool steps back down.
	Autoscale bool `json:"autoscale"`
	// Cache configures the read-through prediction cache on the query path
	// (REST "cache" block). Nil or Enabled=false serves every query through
	// the runtime, exactly as before the cache existed. Live-reconcilable:
	// a PUT can enable, disable, or retune it without redeploying.
	Cache *CacheSpec `json:"cache,omitempty"`
	// Backend selects the execution tier that serves dispatched batches
	// (REST "backend" block). Nil means BackendSim — the profiled-simulation
	// path, bit-identical to a pre-backend deployment. Live-reconcilable:
	// a PUT swaps the tier on the running job, draining in-flight batches on
	// the old backend before it closes.
	Backend *BackendSpec `json:"backend,omitempty"`
}

// Backend kinds a DeploymentSpec can name.
const (
	// BackendSim is the default: model passes pace out their profiled
	// latency and predictions are simulated from trained accuracies
	// (DESIGN.md §2) — the pre-backend serving path, bit for bit.
	BackendSim = "sim"
	// BackendNN serves real in-process inference: one internal/nn network
	// per deployed model, predictions majority-voted per Section 5.2.
	BackendNN = "nn"
	// BackendHTTP forwards each model pass to a remote inference endpoint
	// with per-call timeouts and capped-backoff retries.
	BackendHTTP = "http"
)

// BackendSpec configures a deployment's execution tier: where a dispatched
// batch's model passes actually run. On every tier a replica runs one pass
// at a time and stays busy until it returns, so saturating the tier backs
// requests up in the bounded request queue (ErrQueueFull backpressure), not
// goroutine growth; observed batch latencies feed the engine's planning
// tables either way (DESIGN.md §12).
type BackendSpec struct {
	// Type is the backend kind: BackendSim (the default when empty),
	// BackendNN, or BackendHTTP.
	Type string `json:"type"`
	// URL is the remote endpoint (BackendHTTP only, required): each model
	// pass POSTs {"model","ids","payloads"} and expects {"predictions":[...]}
	// with one class index per request.
	URL string `json:"url,omitempty"`
	// TimeoutMS is the per-attempt call deadline in wall milliseconds
	// (BackendHTTP only, default 1000).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxRetries caps the re-attempts after a failed call (BackendHTTP only,
	// default 2). -1 means no retries (0 is "use the default").
	MaxRetries int `json:"max_retries,omitempty"`
}

// CacheSpec configures a deployment's read-through prediction cache: results
// are keyed by the query payload's digest and served without touching the
// batching runtime. Only hot keys are cached — an exponential-decay frequency
// tracker must see a key's decayed count reach AdmitThreshold before its
// result is stored — and concurrent identical misses on a hot key collapse
// into a single engine submission. Entries expire after TTLSeconds and are
// invalidated wholesale (epoch bump) when the deployment's policy, replica
// topology, or backing checkpoints change, so a superseded ensemble's
// results are never served (DESIGN.md §11).
type CacheSpec struct {
	// Enabled turns the cache on. All other fields default when zero.
	Enabled bool `json:"enabled"`
	// Capacity bounds the stored entry count (default 4096).
	Capacity int `json:"capacity,omitempty"`
	// TTLSeconds is the entry lifetime in wall seconds (default 60).
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	// AdmitThreshold is the decayed touch count at which a key becomes hot
	// and cacheable (default 2).
	AdmitThreshold float64 `json:"admit_threshold,omitempty"`
	// HalfLifeSeconds is the hotness decay half-life (default 10): a key
	// must repeat within a couple of half-lives to stay hot.
	HalfLifeSeconds float64 `json:"half_life_seconds,omitempty"`
}

// withDefaults fills a spec's zero values from the system options.
func (spec DeploymentSpec) withDefaults(opts Options) DeploymentSpec {
	if spec.Policy == "" {
		spec.Policy = PolicyGreedy
	}
	if spec.SLO == 0 {
		spec.SLO = opts.ServeSLO
	}
	if spec.QueueCap == 0 {
		spec.QueueCap = infer.DefaultQueueCap
	}
	if spec.Replicas.Min == 0 {
		spec.Replicas.Min = 1
	}
	if spec.Replicas.Max == 0 {
		spec.Replicas.Max = maxReplicasPerModel
	}
	if spec.Cache != nil {
		// Copy before defaulting: the spec arrived by value but the cache
		// block is a pointer into the caller's struct.
		c := *spec.Cache
		if c.Enabled {
			if c.Capacity == 0 {
				c.Capacity = predcache.DefaultCapacity
			}
			if c.TTLSeconds == 0 {
				c.TTLSeconds = predcache.DefaultTTL
			}
			if c.AdmitThreshold == 0 {
				c.AdmitThreshold = predcache.DefaultAdmitThreshold
			}
			if c.HalfLifeSeconds == 0 {
				c.HalfLifeSeconds = predcache.DefaultHalfLife
			}
		}
		spec.Cache = &c
	}
	if spec.Backend != nil {
		// Same copy-before-defaulting discipline as the cache block.
		b := *spec.Backend
		if b.Type == "" {
			b.Type = BackendSim
		}
		if b.Type == BackendHTTP {
			if b.TimeoutMS == 0 {
				b.TimeoutMS = defaultBackendTimeoutMS
			}
			if b.MaxRetries == 0 {
				b.MaxRetries = defaultBackendMaxRetries
			}
		}
		spec.Backend = &b
	}
	return spec
}

// HTTP-backend defaults and caps: a one-second per-attempt deadline, two
// retries, and sanity ceilings so a spec cannot hold replicas behind a
// minutes-long remote call budget.
const (
	defaultBackendTimeoutMS  = 1000
	defaultBackendMaxRetries = 2
	maxBackendTimeoutMS      = 60_000
	maxBackendRetries        = 8
)

// maxCacheCapacity caps a deployment's cache entry bound.
const maxCacheCapacity = 1 << 20

// validate checks a defaulted spec's shape. It runs before any mutation on
// both the deploy and reconcile paths, so a bad spec never half-applies.
func (spec DeploymentSpec) validate() error {
	if len(spec.Models) == 0 {
		return fmt.Errorf("rafiki: deployment spec needs at least one model")
	}
	switch spec.Policy {
	case PolicyGreedy, PolicyRL, PolicyAsync:
	default:
		return fmt.Errorf("rafiki: unknown policy %q (want %q, %q or %q)", spec.Policy, PolicyGreedy, PolicyRL, PolicyAsync)
	}
	if spec.Policy == PolicyRL && len(spec.Models) > 8 {
		return fmt.Errorf("rafiki: policy %q supports at most 8 models, got %d", PolicyRL, len(spec.Models))
	}
	if !(spec.SLO > 0) { // also NaN
		return fmt.Errorf("rafiki: SLO must be positive, got %v", spec.SLO)
	}
	if spec.QueueCap < 0 {
		return fmt.Errorf("rafiki: queue cap must be non-negative, got %d", spec.QueueCap)
	}
	b := spec.Replicas
	if b.Min < 1 {
		return fmt.Errorf("rafiki: replica bounds need min >= 1, got %d", b.Min)
	}
	if b.Max < b.Min {
		return fmt.Errorf("rafiki: replica bounds need max >= min, got {%d, %d}", b.Min, b.Max)
	}
	if b.Max > maxReplicasPerModel {
		return fmt.Errorf("rafiki: replica bound max %d exceeds the per-model cap %d", b.Max, maxReplicasPerModel)
	}
	if c := spec.Cache; c != nil {
		if c.Enabled && (c.Capacity < 1 || c.Capacity > maxCacheCapacity) {
			return fmt.Errorf("rafiki: cache capacity must be in [1, %d], got %d", maxCacheCapacity, c.Capacity)
		}
		// An enabled block is defaulted, so no field is 0; a disabled one
		// may leave a field unset, but what it sets must be positive. The
		// !(x > 0) form refuses NaN too: a NaN TTL never expires an entry,
		// and a NaN threshold or half-life never admits a key.
		for _, f := range []struct {
			name string
			v    float64
		}{{"TTL", c.TTLSeconds}, {"admit threshold", c.AdmitThreshold}, {"half-life", c.HalfLifeSeconds}} {
			if !(f.v > 0) && (c.Enabled || f.v != 0) {
				return fmt.Errorf("rafiki: cache %s must be positive, got %v", f.name, f.v)
			}
		}
	}
	if b := spec.Backend; b != nil {
		switch b.Type {
		case BackendSim, BackendNN, BackendHTTP:
		default:
			return fmt.Errorf("rafiki: unknown backend type %q (want %q, %q or %q)", b.Type, BackendSim, BackendNN, BackendHTTP)
		}
		if b.Type == BackendHTTP {
			if b.URL == "" {
				return fmt.Errorf("rafiki: backend type %q needs a url", BackendHTTP)
			}
			if b.TimeoutMS < 1 || b.TimeoutMS > maxBackendTimeoutMS {
				return fmt.Errorf("rafiki: backend timeout_ms must be in [1, %d], got %d", maxBackendTimeoutMS, b.TimeoutMS)
			}
			if b.MaxRetries < -1 || b.MaxRetries > maxBackendRetries {
				return fmt.Errorf("rafiki: backend max_retries must be in [-1, %d], got %d", maxBackendRetries, b.MaxRetries)
			}
		} else if b.URL != "" || b.TimeoutMS != 0 || b.MaxRetries != 0 {
			return fmt.Errorf("rafiki: backend type %q takes no url/timeout_ms/max_retries", b.Type)
		}
	}
	return nil
}

// backendSpecEqual reports whether two defaulted backend blocks select the
// same execution tier (nil means the sim default).
func backendSpecEqual(a, b *BackendSpec) bool {
	norm := func(s *BackendSpec) BackendSpec {
		if s == nil {
			return BackendSpec{Type: BackendSim}
		}
		return *s
	}
	return norm(a) == norm(b)
}

// buildPolicy constructs the spec's scheduler for a deployment. For PolicyRL
// it returns the online adapter too, so the job can expose the agent's step
// count; the agent is seeded deterministically from the system seed and the
// job ID.
func (s *System) buildPolicy(spec DeploymentSpec, dep *infer.Deployment, jobID string) (infer.Policy, *rl.Online, error) {
	switch spec.Policy {
	case PolicyRL:
		online, err := rl.NewOnline(rl.DefaultConfig(), len(dep.ModelNames), dep.Batches,
			sim.NewRNG(s.opts.Seed).SplitNamed(jobID+"/rl"))
		if err != nil {
			return nil, nil, err
		}
		return online, online, nil
	case PolicyAsync:
		return &infer.AsyncEach{D: dep}, nil, nil
	default: // validated: PolicyGreedy
		return &infer.SyncAll{D: dep}, nil, nil
	}
}

// InferenceStatus is the observed side of a deployment, paired with its spec
// in an InferenceDescription: the live policy, replica layout and headline
// serving counters (GET /api/v1/inference/{id}/stats has the full metrics).
type InferenceStatus struct {
	// Policy is the scheduler currently installed on the runtime.
	Policy string `json:"policy"`
	// Backend is the execution tier currently serving batches ("sim", "nn",
	// "http", ...), with the error/retry counters and the observed-latency
	// EWMA + applied planning scale per model (DESIGN.md §12). The requests
	// each model is running right now are the stats route's model_inflight.
	Backend           string    `json:"backend"`
	BackendErrors     uint64    `json:"backend_errors"`
	BackendRetries    uint64    `json:"backend_retries"`
	ModelLatencyEWMA  []float64 `json:"model_latency_ewma,omitempty"`
	ModelLatencyScale []float64 `json:"model_latency_scale,omitempty"`
	// Replicas is the live per-model replica count.
	Replicas map[string]int `json:"replicas"`
	// QueueLen is the current request-queue depth.
	QueueLen int `json:"queue_len"`
	// BatchSizeMean is the mean executed batch size and BatchSizeHist the
	// histogram of executed dispatch sizes.
	BatchSizeMean float64     `json:"batch_size_mean"`
	BatchSizeHist map[int]int `json:"batch_size_hist,omitempty"`
	// Queries counts completed queries; Served/Dropped are the runtime's
	// completion and rejection counters.
	Queries uint64 `json:"queries"`
	Served  int    `json:"served"`
	Dropped int    `json:"dropped"`
	// RLSteps is the online agent's decision count (PolicyRL only): it
	// advancing while queries flow is the observable that the scheduler is
	// training on the live path.
	RLSteps int64 `json:"rl_steps,omitempty"`
	// Autoscaling reports whether the autoscale loop is running.
	Autoscaling bool `json:"autoscaling"`
	// Cache is the prediction cache's live counters (hit rate, hot keys,
	// staleness evictions, singleflight collapses); absent when the spec has
	// no enabled cache block.
	Cache *predcache.Stats `json:"cache,omitempty"`
}

// InferenceDescription is the full REST resource: desired spec plus observed
// status.
type InferenceDescription struct {
	ID     string          `json:"id"`
	Spec   DeploymentSpec  `json:"spec"`
	Status InferenceStatus `json:"status"`
}

// Describe snapshots the deployment as spec + status.
func (j *InferenceJob) Describe() InferenceDescription {
	j.mu.Lock()
	defer j.mu.Unlock()
	return describeLocked(j)
}

// Spec returns the deployment's current (last reconciled) spec.
func (j *InferenceJob) Spec() DeploymentSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec
}

// RLSteps returns the online agent's decision count, or 0 for non-RL
// deployments. Safe to call concurrently with serving.
func (j *InferenceJob) RLSteps() int64 {
	j.mu.Lock()
	p := j.rlPolicy
	j.mu.Unlock()
	if p == nil {
		return 0
	}
	return p.Steps()
}

// ListInference describes every live deployment, ordered by ID.
func (s *System) ListInference() []InferenceDescription {
	s.mu.Lock()
	jobs := make([]*InferenceJob, 0, len(s.inferJobs))
	for _, j := range s.inferJobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	out := make([]InferenceDescription, len(jobs))
	for i, j := range jobs {
		out[i] = j.Describe()
	}
	return out
}

// ReconcileInference drives a live deployment to a changed spec — the PUT
// /api/v1/inference/{id} verb. The spec is defaulted and validated in full
// before anything mutates; then the differences are applied to the running
// job: a policy change swaps the scheduler without dropping queued requests
// (an RL agent being swapped out flushes its last TD update first), SLO and
// queue-cap changes retune the runtime, replica-bound changes clamp the live
// pools into the new [Min, Max], and the autoscale loop starts or stops.
// The model set is immutable; a reconcile spec may leave Models empty to
// mean "keep the deployed set".
//
// Replica clamping talks to the cluster manager and can fail mid-way (e.g.
// no node capacity), so it runs before everything else: on failure the
// policy, SLO, queue cap and recorded spec are untouched and the error
// reports the partially scaled pools; once clamping succeeds the remaining
// steps cannot fail (the runtime cannot close mid-reconcile — teardown
// serializes on the job lock).
func (s *System) ReconcileInference(id string, spec DeploymentSpec) (*InferenceDescription, error) {
	return s.reconcileInference(id, spec, true)
}

// reconcileInference is ReconcileInference with the journal switch: the fully
// resolved spec is appended under job.mu after validation and before the
// first mutation, so journal order matches apply order (job.mu serializes
// reconciles) and replay re-executes the exact spec the caller was
// acknowledged for.
func (s *System) reconcileInference(id string, spec DeploymentSpec, record bool) (*InferenceDescription, error) {
	job, err := s.InferenceJobByID(id)
	if err != nil {
		return nil, err
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.stopped {
		return nil, fmt.Errorf("rafiki: %w %q", ErrUnknownInferenceJob, id)
	}
	if len(spec.Models) == 0 {
		spec.Models = append([]ModelInstance(nil), job.Models...)
	}
	spec = spec.withDefaults(s.opts)
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if !sameModelSet(spec.Models, job.Models) {
		return nil, fmt.Errorf("rafiki: %w: reconcile %s: the model set is immutable (deploy a new job to change models)", ErrConflict, id)
	}
	if record {
		if err := s.journalAppend(kindReconcile, reconcileRec{ID: id, Spec: spec}); err != nil {
			return nil, err
		}
	}

	// Clamp the live replica pools into the new bounds first: it is the only
	// step that can fail after validation (cluster capacity), so failing
	// here leaves the policy, SLO and queue cap — and the recorded spec —
	// untouched, and a success makes the rest of the reconcile infallible.
	for mi := range job.Models {
		target := job.replicas[mi]
		if target < spec.Replicas.Min {
			target = spec.Replicas.Min
		}
		if target > spec.Replicas.Max {
			target = spec.Replicas.Max
		}
		if target != job.replicas[mi] {
			if err := s.scaleModelLocked(job, mi, target); err != nil {
				return nil, fmt.Errorf("rafiki: reconcile %s: replica bounds partially applied: %w", id, err)
			}
		}
	}
	// Backend swap: build the new execution tier (with replica clamping, the
	// only other step that can fail — a failure here leaves any clamping
	// applied but the recorded spec untouched), install it on the runtime —
	// which drains in-flight batches on the old backend before closing it —
	// and bump the cache epoch: cached results came off the old tier.
	if !backendSpecEqual(spec.Backend, job.spec.Backend) {
		backend, combine, err := s.buildBackend(spec, job)
		if err != nil {
			return nil, fmt.Errorf("rafiki: reconcile %s: %w", id, err)
		}
		if err := job.runtime.SetBackend(backend, combine); err != nil {
			return nil, fmt.Errorf("rafiki: reconcile %s: %w", id, err)
		}
		job.invalidateCache()
	}
	// Policy swap: install the new scheduler, then flush the old agent.
	// SetPolicy serializes under the runtime lock, so once it returns no
	// Decide can still be running on the outgoing policy — only then is
	// Flush's TD update race-free (the runtime never locks the agent
	// itself).
	if spec.Policy != job.spec.Policy {
		pol, online, err := s.buildPolicy(spec, job.dep, job.ID)
		if err != nil {
			return nil, fmt.Errorf("rafiki: reconcile %s: %w", id, err)
		}
		old := job.rlPolicy
		if err := job.runtime.SetPolicy(pol); err != nil {
			return nil, fmt.Errorf("rafiki: reconcile %s: %w", id, err)
		}
		if old != nil {
			old.Flush()
		}
		job.rlPolicy = online
		// The scheduler decides which models answer each batch, so cached
		// results now describe a superseded ensemble: bump the cache epoch
		// before any post-swap query can observe a stale hit.
		job.invalidateCache()
	}
	if spec.SLO != job.spec.SLO {
		if err := job.runtime.SetSLO(spec.SLO); err != nil {
			return nil, fmt.Errorf("rafiki: reconcile %s: %w", id, err)
		}
	}
	if spec.QueueCap != job.spec.QueueCap {
		if err := job.runtime.SetQueueCap(spec.QueueCap); err != nil {
			return nil, fmt.Errorf("rafiki: reconcile %s: %w", id, err)
		}
	}
	// Autoscale toggle.
	if spec.Autoscale && job.autoStop == nil {
		job.autoStop = make(chan struct{})
		go s.autoscaleLoop(job, job.autoStop)
	} else if !spec.Autoscale && job.autoStop != nil {
		close(job.autoStop)
		job.autoStop = nil
	}
	// Prediction-cache reconcile: enable builds a fresh (empty) cache,
	// disable drops it — in-flight queries holding the old pointer finish
	// against it harmlessly — and a retune reconfigures the live cache in
	// place, keeping its entries (a capacity shrink trims LRU-first).
	switch cfg, enabled := cacheConfigFor(spec.Cache); {
	case enabled && job.cache.Load() == nil:
		job.cache.Store(predcache.New(cfg))
	case enabled:
		job.cache.Load().Configure(cfg)
	default:
		job.cache.Store(nil)
	}
	job.spec = spec
	desc := describeLocked(job)
	return &desc, nil
}

// describeLocked is Describe with j.mu already held (reconcile returns the
// fresh description from inside its critical section).
func describeLocked(j *InferenceJob) InferenceDescription {
	st := j.runtime.Stats()
	out := InferenceDescription{
		ID:   j.ID,
		Spec: j.spec,
		Status: InferenceStatus{
			Policy:            j.runtime.PolicyName(),
			Backend:           st.Backend,
			BackendErrors:     st.BackendErrors,
			BackendRetries:    st.BackendRetries,
			ModelLatencyEWMA:  st.ModelLatencyEWMA,
			ModelLatencyScale: st.ModelLatencyScale,
			Replicas:          make(map[string]int, len(j.Models)),
			QueueLen:          st.QueueLen,
			BatchSizeMean:     st.BatchSizeMean,
			BatchSizeHist:     st.BatchSizeHist,
			Queries:           j.queries.Load(),
			Served:            st.Served,
			Dropped:           st.Dropped,
			Autoscaling:       j.autoStop != nil,
		},
	}
	for i, m := range j.Models {
		out.Status.Replicas[m.Model] = j.replicas[i]
	}
	if j.rlPolicy != nil {
		out.Status.RLSteps = j.rlPolicy.Steps()
	}
	if c := j.cache.Load(); c != nil {
		cs := c.Snapshot()
		out.Status.Cache = &cs
	}
	return out
}

// sameModelSet reports whether two instance lists deploy the same models
// (order-insensitive, matched by architecture and checkpoint).
func sameModelSet(a, b []ModelInstance) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(m ModelInstance) string { return m.Model + "\x00" + m.CheckpointKey }
	set := make(map[string]int, len(a))
	for _, m := range a {
		set[key(m)]++
	}
	for _, m := range b {
		set[key(m)]--
		if set[key(m)] < 0 {
			return false
		}
	}
	return true
}

// Autoscaler tuning. The loop samples the runtime's per-model demand
// signals — each model's backlog estimate and the queue-growth rate the
// engine exposes (the same numbers GET /stats reports) — every
// autoscaleInterval of wall time, and moves each model's pool inside the
// spec bounds with a step proportional to its standing backlog.
const (
	// autoscaleInterval is the sampling cadence (wall clock; deliberately a
	// few× the cluster-manager tick so scale decisions see settled state).
	autoscaleInterval = 20 * time.Millisecond
	// autoscaleHighWater is the per-model backlog that triggers a scale-up:
	// two full max-size batches of standing backlog means the model's pool
	// is not draining its share of the offered load. It is also the step
	// quantum — every further high-water multiple of backlog adds another
	// replica to the step.
	autoscaleHighWater = 32
)

// autoscaleTarget is the pure scaling rule, proportional in the model's own
// backlog rather than a fixed ±1 step. Pools outside [min, max] (after a
// manual ScaleInference below the floor, say) snap back to the nearest
// bound. Inside the bounds, the scale-up step is backlog/highWater replicas
// — a model 4 high-water marks behind jumps 4 replicas at once instead of
// crawling up one tick at a time — plus one more while the queue is still
// growing (arrivals outpacing drains). The pool steps down one replica only
// when the model is idle: no backlog, nothing draining, no growth.
func autoscaleTarget(cur, min, max int, backlog, growth, drainRate float64) int {
	if cur < min {
		return min
	}
	if cur > max {
		return max
	}
	if backlog >= autoscaleHighWater {
		step := int(backlog) / autoscaleHighWater
		if growth > 0 {
			step++
		}
		if cur+step > max {
			return max
		}
		return cur + step
	}
	if backlog == 0 && drainRate == 0 && growth <= 0 && cur > min {
		return cur - 1
	}
	return cur
}

// autoscaleLoop drives a deployment's replica pools from the runtime's
// per-model backlog and queue-growth signals until stop closes (reconcile
// toggling autoscale off, or teardown). Each model scales on its own
// backlog, so a slow model under the async policy grows its pool without
// dragging the fast ones along. Scale errors (e.g. transient cluster
// capacity) are dropped: the loop just tries again next tick with fresh
// signals.
func (s *System) autoscaleLoop(job *InferenceJob, stop <-chan struct{}) {
	t := time.NewTicker(autoscaleInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		backlogs, growth, drain := job.runtime.Signals()
		job.mu.Lock()
		if job.stopped {
			job.mu.Unlock()
			return
		}
		bounds := job.spec.Replicas
		for mi := range job.Models {
			if mi >= len(backlogs) {
				break
			}
			target := autoscaleTarget(job.replicas[mi], bounds.Min, bounds.Max, backlogs[mi].Queued, growth, drain)
			if target != job.replicas[mi] {
				_ = s.scaleModelLocked(job, mi, target)
			}
		}
		job.mu.Unlock()
	}
}

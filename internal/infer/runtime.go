package infer

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"rafiki/internal/ensemble"
	"rafiki/internal/metrics"
	"rafiki/internal/sim"
)

// Runtime errors.
var (
	// ErrQueueFull reports an arrival rejected by a full queue (the paper's
	// drop behaviour surfaced to the caller instead of silently counted).
	ErrQueueFull = errors.New("infer: request queue full")
	// ErrClosed reports a submission to a closed runtime.
	ErrClosed = errors.New("infer: runtime closed")
)

// Stats is a point-in-time snapshot of a runtime's serving metrics, safe to
// read while the runtime keeps serving.
type Stats struct {
	Served     int     `json:"served"`
	Overdue    int     `json:"overdue"`
	Dropped    int     `json:"dropped"`
	Decisions  int     `json:"decisions"`
	Dispatches int     `json:"dispatches"`
	QueueLen   int     `json:"queue_len"`
	P50Latency float64 `json:"p50_latency_seconds"`
	P99Latency float64 `json:"p99_latency_seconds"`
	Reward     float64 `json:"reward"`
	// Replicas is the live per-model replica count (parallel to the
	// deployment's model list).
	Replicas []int `json:"replicas"`
	// DrainRate estimates the queue's recent drain in requests per timeline
	// second (completions over the last drainWindow seconds, including
	// batches already dispatched and finishing shortly). 0 means nothing
	// has drained recently — callers fall back to a fixed retry hint.
	DrainRate float64 `json:"drain_rate"`
	// BatchSizeMean is the mean executed batch size; BatchSizeHist the
	// histogram of executed dispatch sizes (actual popped counts).
	BatchSizeMean float64     `json:"batch_size_mean"`
	BatchSizeHist map[int]int `json:"batch_size_hist,omitempty"`
	// ModelBacklogs is each model's estimated share of the queued backlog
	// (parallel to the deployment's model list) — exactly the signal the
	// proportional autoscaler steps on. ModelInflight counts the requests
	// already dispatched to each model's replicas and not yet finished.
	ModelBacklogs []float64 `json:"model_backlogs"`
	ModelInflight []int     `json:"model_inflight"`
	// QueueGrowth is the recent arrival rate minus the drain rate (requests
	// per timeline second): positive means the backlog is building.
	QueueGrowth float64 `json:"queue_growth"`
	// Backend names the live execution backend (sim/nn/http).
	Backend string `json:"backend"`
	// BackendErrors counts failed backend passes; BackendRetries the
	// backend's internal retries (HTTP).
	BackendErrors  uint64 `json:"backend_errors"`
	BackendRetries uint64 `json:"backend_retries"`
	// ModelLatencyEWMA is each model's observed batch-latency EWMA in
	// timeline seconds (0 until a backend reported one);
	// ModelLatencyScale the applied observed/profiled ratio the decision
	// points plan with (1 = the raw zoo profile).
	ModelLatencyEWMA  []float64 `json:"model_latency_ewma,omitempty"`
	ModelLatencyScale []float64 `json:"model_latency_scale,omitempty"`
	// BackoffDelta is the live Algorithm 3 back-off δ in timeline seconds;
	// LateBatches counts the successfully finished batches whose oldest
	// request completed past τ on the runtime's clock — the signal δ adapts
	// to, beside Overdue's planned count (DESIGN.md §20).
	BackoffDelta float64 `json:"backoff_delta"`
	LateBatches  uint64  `json:"late_batches"`
}

// drainWindow is the lookback (timeline seconds) of Stats.DrainRate.
const drainWindow = 5.0

// DefaultQueueCap is the request-queue bound a runtime gets when its
// configuration leaves QueueCap at 0.
const DefaultQueueCap = 4096

// RuntimeConfig tunes a Runtime.
type RuntimeConfig struct {
	// Timeline drives time; nil defaults to a real-time WallTimeline.
	Timeline sim.Timeline
	// QueueCap bounds the request queue (0 = DefaultQueueCap).
	// The bound is what turns a stalled backend into ErrQueueFull: its
	// replicas stay held, so queued requests wait for them, and admission
	// refuses once the queue is full instead of growing it without limit.
	QueueCap int
	// Backend executes each dispatched batch's per-model passes; nil
	// defaults to SimBackend (profiled pacing, no predictions — the
	// runtime's combiner computes the results from the payloads).
	Backend Backend
}

// Runtime is Rafiki's inference service: goroutine-safe, channel-fed, with
// per-request futures, on the wall clock or on a virtual-time event loop
// (the Simulator harness). Concurrent callers Submit payloads; the
// scheduling Policy groups them into shared batches; the Backend runs each
// selected model's pass over a batch and the CombineFunc folds the passes
// into one result per request.
//
// A submission takes one lock, the queue's: its future's slot rides in the
// queued request, so the FIFO is the only place a queued request lives. It
// then arms the coalesced sweep. Decision points run one at a time under the
// dispatch lock: the first submitter after an idle sweep schedules one, and
// every submission that lands while it is pending shares it. A policy error
// at a decision point poisons the runtime and reaches every queued caller
// through its future.
//
// Decision points are every submission (via the coalesced sweep), every
// model freeing up, and the instant a waiting policy names (Action.Until),
// when Algorithm 3's deadline rule starts to apply without a new arrival.
// A model frees up when its backend pass
// returns: a dispatched replica stays busy until then, so replica occupancy
// is the runtime's only bound on concurrent backend passes.
//
// Concurrency contract: every exported method is safe for concurrent use.
// mu, the dispatch lock, serializes decision points with each other and
// with the control operations (SetPolicy, SetSLO, SetQueueCap, SetReplicas,
// AddReplica, SetReplicaDown, SetBackend) and teardown; it guards the
// policy, the decision scratch and the deadline wake. Three leaf locks sit
// under it, each taken alone: qmu (the FIFO, its arrival-event buffers and
// its closed mark), occMu (the replica pools) and metMu (the metric plane).
// Lock order: mu, then one leaf lock; never the reverse. Metric reads
// (Stats, Signals, Backpressure) take only leaf locks, and Submit and a
// returning pass take mu only by TryLock (to run a sweep inline), so none of
// them waits on a decision point. The latency feedback and the δ controller
// are atomics any goroutine folds into.
type Runtime struct {
	d *Deployment
	// acc provides the surrogate ensemble accuracy a(M[v]) for rewards.
	acc *ensemble.AccuracyTable
	tl  sim.Timeline

	// syncExec marks a non-concurrent timeline (the virtual-time EventLoop,
	// whose event heap is unlocked and whose callbacks fire single-threaded
	// from Step/RunUntil): each backend pass then runs inline from its own
	// model's finish event, preserving the loop's determinism, instead of on
	// a pass worker.
	syncExec bool
	// passCh hands a model pass to a parked pass worker (unbuffered, so a
	// send succeeds only when one is idle). Held replicas bound the workers.
	passCh chan passRef
	// backend is the live backend handle; SetBackend swaps it and drains
	// the old handle's in-flight batches before closing its backend.
	backend atomic.Pointer[backendHandle]
	// execCtx cancels on Close, failing in-flight backend work fast so
	// teardown never waits out a slow or hung backend.
	execCtx    context.Context
	execCancel context.CancelFunc

	backendErrs atomic.Uint64

	// mu is the dispatch lock (see the concurrency contract above).
	mu     sync.Mutex
	policy Policy
	// subsets holds each dispatched model subset's record, keyed by its
	// bitmask, so a dispatch of a known subset skips the accuracy table's
	// subset-key build and lock.
	subsets map[uint64]subset
	// view, st and runs are the decision scratch, reused across decision
	// points (policies must not retain *State or its slices across calls —
	// the online RL adapter copies what it rewrites). until is the
	// Action.Until of the wait that ended the last decide, 0 when something
	// else ended it; step arms the deadline wake from it.
	view  modelView
	st    State
	runs  []*batchRun
	until float64
	// deadline is the earliest armed deadline wake not yet reached, +Inf
	// when none is armed. deadlineFn, the wake's cached callback (no closure
	// per arm), only schedules a coalesced sweep, so a timer callback never
	// blocks on the dispatch lock.
	deadline   float64
	deadlineFn func()
	// sweepSet coalesces decision points: only the submitter that flips it
	// schedules a sweep; everyone else piggybacks. sweepFn is the sweep's
	// cached event callback on a virtual-time loop (no method value per
	// scheduled sweep).
	sweepSet atomic.Bool
	sweepFn  func()
	// wake is the sweep worker's one-token run signal; workerStarted
	// latches its lazy spawn (concurrent timelines only).
	wake          chan struct{}
	workerStarted atomic.Bool

	// closed flips once (teardown or poison); errv holds the poisoning
	// decision-point error, stored before closed so closedErr never misses
	// it.
	closed atomic.Bool
	errv   atomic.Value

	// qmu guards the request FIFO q (whose Cap is the queue bound), the
	// arrival-event buffers and qclosed. spare is the buffer the last flush
	// drained: the next flush swaps it in, so two buffers alternate and
	// enqueue's append stops allocating. qclosed marks a queue failAll has
	// drained; enqueue then refuses.
	qmu     sync.Mutex
	q       *Queue
	events  []arrivalEvent
	spare   []arrivalEvent
	qclosed bool

	// occMu guards the replica pools: pools[m] is model m's replicas. pools
	// itself is fixed at construction (the deployment's model set never
	// changes); each pool resizes under the lock.
	occMu sync.Mutex
	pools [][]replica

	// lat is the latency-feedback plane, one entry per model (latency.go):
	// its EWMAs are atomics any pass folds into, its applied scale and
	// rescaled row are decision scratch behind table, the c(m,b) table only
	// the decision path reads and rebuilds.
	lat   []latModel
	table [][]float64
	// backoff is Algorithm 3's δ controller for the live SLO (see
	// observeBatchLatency); lateBatches counts the finalized batches it saw
	// finish past τ.
	backoff     atomic.Pointer[backoffState]
	lateBatches atomic.Uint64

	// metMu guards the metric plane: met and the per-model dispatch shares
	// feeding backlogs (dispatched/popped).
	metMu      sync.Mutex
	met        metricPlane
	dispatched []uint64
	popped     uint64
	// decisions counts policy decision points. It is bumped once per
	// Decide, outside metMu.
	decisions atomic.Uint64

	nextID   atomic.Uint64
	inflight sync.WaitGroup

	// stopCh stops the sweep worker and the pass workers; stopOnce latches
	// its close; workerWG tracks every worker so Close reaps them.
	stopCh   chan struct{}
	stopOnce atomic.Bool
	workerWG sync.WaitGroup
}

// NewRuntime wires a serving runtime for a deployment, policy and combiner
// (which folds each batch's backend passes into per-request results). The
// accuracy table feeds Equation 7 reward accounting.
func NewRuntime(d *Deployment, p Policy, acc *ensemble.AccuracyTable, combine CombineFunc, cfg RuntimeConfig) (*Runtime, error) {
	if combine == nil {
		return nil, fmt.Errorf("infer: runtime needs a combiner")
	}
	tl := cfg.Timeline
	if tl == nil {
		tl = &sim.WallTimeline{}
	}
	queueCap := cfg.QueueCap
	if queueCap == 0 {
		queueCap = DefaultQueueCap
	}
	// Prime the accuracy surrogate for the full ensemble (the live path's
	// default subset): its first evaluation simulates the whole sample set
	// (~100ms+) and would otherwise stall the first dispatch — and every
	// Submit behind it — under the runtime lock.
	if acc != nil {
		_, _ = acc.Accuracy(d.ModelNames)
	}
	_, concurrent := tl.(sim.ConcurrentTimeline)
	r := &Runtime{
		d:          d,
		acc:        acc,
		tl:         tl,
		syncExec:   !concurrent,
		policy:     p,
		subsets:    make(map[uint64]subset),
		deadline:   math.Inf(1),
		q:          NewQueue(queueCap),
		pools:      make([][]replica, len(d.Profiles)),
		lat:        make([]latModel, len(d.Profiles)),
		table:      slices.Clone(d.LatencyTable()),
		dispatched: make([]uint64, len(d.Profiles)),
		met: metricPlane{
			arrivals:   metrics.NewWindowCounter(1),
			drained:    metrics.NewWindowCounter(1),
			batchSizes: map[int]int{},
		},
	}
	r.met.arrivals.Keep, r.met.drained.Keep = rateKeep, rateKeep
	for m := range r.pools {
		r.lat[m].raw.Store(math.Float64bits(1))
		r.lat[m].applied = 1
		r.pools[m] = make([]replica, d.ReplicaCount(m))
	}
	r.resetBackoff()
	r.execCtx, r.execCancel = context.WithCancel(context.Background())
	b := cfg.Backend
	if b == nil {
		b = &SimBackend{}
	}
	r.backend.Store(&backendHandle{b: b, combine: combine})
	r.deadlineFn = r.scheduleSweep
	r.sweepFn = r.sweep
	r.passCh = make(chan passRef)
	r.stopCh = make(chan struct{})
	r.wake = make(chan struct{}, 1)
	return r, nil
}

// closedErr reports why the runtime rejects work: the poisoning error
// if there is one, ErrClosed otherwise.
func (r *Runtime) closedErr() error {
	if err, ok := r.errv.Load().(error); ok {
		return err
	}
	return ErrClosed
}

// Submit enqueues a payload and returns a future for its batched result,
// then hands the decision point to a coalesced sweep, so the submit path
// never waits on the dispatch lock.
// A policy error at that decision point reaches the caller through the
// future. The future's slot comes from the completion pool; callers that
// Release after Wait make the steady-state path allocation-free.
func (r *Runtime) Submit(payload any) (Future, error) {
	if r.closed.Load() {
		return Future{}, r.closedErr()
	}
	id := r.nextID.Add(1) - 1
	f, s := acquireSlot(payload)
	now := r.tl.Now()
	if !r.enqueue(Request{ID: id, Arrival: now, slot: s}) {
		s.recycle()
		// failAll marks the runtime closed before it closes the queue, so a
		// refusal from a closed queue always finds the flag set here.
		if r.closed.Load() {
			return Future{}, r.closedErr()
		}
		return Future{}, ErrQueueFull
	}
	r.scheduleSweep()
	return f, nil
}

// scheduleSweep arms one coalesced decision point unless one is already
// pending. The flag clears under the dispatch lock before the sweep reads
// the queue, so a submission that finds it set is always observed either by
// the pending sweep or by a successor scheduled after it.
//
// On a concurrent timeline the sweep runs on a dedicated worker goroutine
// (lazily spawned, reaped by Close) — waking it is a non-blocking token
// send, so submitters and timer callbacks never block on a busy dispatch
// lock and the runtime's goroutine count stays O(1), not O(armed timers).
// Under a virtual-time loop the sweep stays a zero-delay event, preserving
// the loop's deterministic single-threaded ordering.
func (r *Runtime) scheduleSweep() {
	if !r.sweepSet.CompareAndSwap(false, true) {
		return
	}
	if r.syncExec {
		r.tl.AfterFunc(0, r.sweepFn)
		return
	}
	// Fast path: if the dispatch lock is free right now, run the sweep on
	// this goroutine instead of paying a park/unpark round trip through the
	// worker — on a single core that scheduling hop is pure added latency on
	// the drain path. TryLock keeps every caller (submitters, the deadline
	// wake's timer callback) non-blocking; contention falls back to the
	// worker token below. No caller holds any runtime lock here.
	if r.mu.TryLock() {
		r.sweepSet.Store(false)
		if !r.closed.Load() {
			_ = r.step(r.tl.Now())
		}
		r.mu.Unlock()
		return
	}
	if r.workerStarted.CompareAndSwap(false, true) {
		r.workerWG.Add(1)
		go r.sweepWorker()
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// sweepWorker is the dedicated sweep goroutine: it parks on the wake token
// and runs one coalesced sweep per token. At most one token is ever
// outstanding (a new one is only sent after the running sweep cleared
// sweepSet under the dispatch lock), so the non-blocking send in
// scheduleSweep can never drop a required wakeup.
func (r *Runtime) sweepWorker() {
	defer r.workerWG.Done()
	for {
		select {
		case <-r.wake:
			r.sweep()
		case <-r.stopCh:
			return
		}
	}
}

// sweep is one coalesced decision point.
func (r *Runtime) sweep() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepSet.Store(false)
	if r.closed.Load() {
		return
	}
	_ = r.step(r.tl.Now())
}

// step runs one decision point, launching its dispatches and arming the
// deadline wake its wait names. Called with the dispatch lock held.
func (r *Runtime) step(now float64) error {
	if r.closed.Load() {
		return r.closedErr()
	}
	runs, err := r.decide(now)
	for _, br := range runs {
		r.launch(now, br)
	}
	if err != nil {
		// A policy/dispatch error poisons the runtime: requests left in the
		// queue have no valid schedule anymore, so close the runtime
		// and fail the undispatched futures rather than let later
		// submissions batch with orphaned queue entries. Already-dispatched
		// batches still complete normally.
		r.errv.Store(err)
		r.closed.Store(true)
		r.failAll(err)
		return err
	}
	if now >= r.deadline {
		r.deadline = math.Inf(1) // the armed wake has come
	}
	// Arm a wake only for an instant earlier than the armed one (a later
	// arrival that raised the batch); a superseded wake fires as one
	// harmless sweep. The floor keeps every wake strictly after now, and
	// deadline is the instant the timeline will fire at.
	if u := r.until; u > 0 && u < r.deadline {
		d := max(u, math.Nextafter(now, math.Inf(1))) - now
		r.deadline = now + d
		r.tl.AfterFunc(d, r.deadlineFn)
	}
	return nil
}

// backendHandle binds a backend to the combiner that folds its predictions,
// and tracks the batches in flight on it so a swap can drain the old backend
// before closing it.
type backendHandle struct {
	b       Backend
	combine CombineFunc
	wg      sync.WaitGroup
}

// batchRun is one dispatched batch: dispatch fills it, launch hands out its
// model passes, the passes fill preds, and the last one to finish finalizes
// the futures. Runs are pooled: only the dispatch → model-pass → finalize
// pipeline touches a run (waiters touch just their own slot), so once
// finalize has resolved every slot the run and its slices go back to the
// pool, and the dispatch hot path runs batch after batch without growing the
// heap. Backends and combiners must not retain the ID/payload slices beyond
// the call, which the ExecTask contract already requires.
type batchRun struct {
	// reqs is the batch, oldest first: each request carries the slot
	// finalize resolves. ids and payloads are its backend and combiner view.
	reqs     []Request
	ids      []uint64
	payloads []any
	// passes[k] is the k-th selected model's pass, in ascending model order;
	// names are the subset's shared, immutable model names.
	passes []pass
	names  []string
	// decided is the decision time and finish the ensemble completion (the
	// slowest pass's planned finish); reward is the Equation 7 reward.
	decided, finish, reward float64
	// h is the backend handle launch hands the passes to.
	h *backendHandle
	// preds[k] is passes[k]'s predictions; remaining counts unfinished model
	// passes.
	preds     [][]any
	remaining atomic.Int32
	// failed/err record the first model pass failure; written before the
	// pass's remaining decrement, so finalize (which runs after observing
	// zero) always sees it.
	failed atomic.Bool
	err    error
}

// pass is one selected model's share of a run: the model's index, the
// replica that serves it and its planned finish.
type pass struct {
	model, rep int
	finish     float64
}

var batchRunPool = sync.Pool{New: func() any { return new(batchRun) }}

// grab sizes the run's per-request and per-model slices for a batch of n
// requests across m models, reusing prior capacity, and empties passes for
// dispatch to append to.
func (br *batchRun) grab(n, m int) {
	if cap(br.ids) < n {
		br.ids = make([]uint64, n)
		br.payloads = make([]any, n)
	}
	br.ids, br.payloads = br.ids[:n], br.payloads[:n]
	if cap(br.preds) < m {
		br.preds = make([][]any, m)
	}
	br.preds, br.passes = br.preds[:m], br.passes[:0]
}

// release clears every reference the run holds and returns it to the pool.
// Called at the end of finalize, after the last read of the run.
func (br *batchRun) release() {
	clear(br.reqs)
	clear(br.payloads)
	clear(br.preds)
	br.names = nil
	br.h = nil
	br.err = nil
	br.failed.Store(false)
	batchRunPool.Put(br)
}

func (br *batchRun) fail(err error) {
	if br.failed.CompareAndSwap(false, true) {
		br.err = err
	}
}

// task builds model pass i's ExecTask view of the batch on timeline tl.
func (br *batchRun) task(i int, tl sim.Timeline) ExecTask {
	p := br.passes[i]
	return ExecTask{
		Model:          br.names[i],
		ModelIndex:     p.model,
		IDs:            br.ids,
		Payloads:       br.payloads,
		Decided:        br.decided,
		ProfiledFinish: p.finish,
		Timeline:       tl,
	}
}

// launch hands a dispatched run's model passes to the execution layer. On a
// concurrent timeline each pass goes to a pass worker at once (the
// SimBackend paces to the profiled finish; real backends run for as long as
// they run); on a virtual-time loop each pass runs inline from its own
// model's finish event, preserving the loop's determinism. Called with the
// dispatch lock held.
func (r *Runtime) launch(now float64, br *batchRun) {
	br.h = r.backend.Load()
	br.h.wg.Add(1)
	r.inflight.Add(1)
	br.remaining.Store(int32(len(br.passes)))
	for i, p := range br.passes {
		if r.syncExec {
			r.tl.AfterFunc(p.finish-now, func() { r.runModelPass(br, i) })
			continue
		}
		// A parked worker takes the pass by value; spawn one only when none
		// is idle, so a steady stream of passes starts no goroutines.
		select {
		case r.passCh <- passRef{br, i}:
		default:
			r.workerWG.Add(1)
			go r.passWorker(passRef{br, i})
		}
	}
}

// passRef names one model pass of a dispatched batch.
type passRef struct {
	br *batchRun
	i  int
}

// passWorker runs model passes: its first one, then each one handed over
// passCh, until Close stops the workers. Every pass it runs holds a replica,
// so the live workers never outnumber the replicas that were ever busy at
// once.
func (r *Runtime) passWorker(p passRef) {
	defer r.workerWG.Done()
	for {
		r.runModelPass(p.br, p.i)
		select {
		case p = <-r.passCh:
		case <-r.stopCh:
			return
		}
	}
}

// runModelPass executes one model's backend pass and feeds the observed
// latency back into the planning EWMA. Then it releases the pass's
// replica, finalizes the batch if this was its last pass, and runs the
// decision point the freed replica calls for.
func (r *Runtime) runModelPass(br *batchRun, i int) {
	p := br.passes[i]
	preds, obs, err := br.h.b.Execute(r.execCtx, br.task(i, r.tl))
	if err != nil {
		r.backendErrs.Add(1)
		br.fail(err)
	} else {
		br.preds[i] = preds
		r.observeLatency(p.model, len(br.ids), obs)
	}
	r.release(p.model, p.rep, p.finish, r.tl.Now())
	if br.remaining.Add(-1) == 0 {
		r.finalize(br)
	}
	r.onModelFree()
}

// onModelFree is the decision point at a returned model pass: the freed
// replica is new capacity, so a backlog gets a coalesced sweep. It only
// schedules the sweep, so a pass worker never blocks on the dispatch lock.
func (r *Runtime) onModelFree() {
	if !r.closed.Load() && r.queueLen() > 0 {
		r.scheduleSweep()
	}
}

// finalize folds a finished batch's model passes into per-request results
// through the handle's combiner, resolves its futures and returns the run to
// the pool.
func (r *Runtime) finalize(br *batchRun) {
	h := br.h
	defer r.inflight.Done()
	defer h.wg.Done()
	err := br.err
	var results []any
	if err == nil {
		results, err = h.combine(br.ids, br.payloads, br.names, br.preds)
		if err == nil && len(results) != len(br.reqs) {
			err = fmt.Errorf("infer: combiner returned %d results for a batch of %d", len(results), len(br.reqs))
		}
	}
	if err != nil && r.closed.Load() && errors.Is(err, context.Canceled) {
		// The pass was cancelled by Close, not failed by the backend:
		// surface the teardown error the rest of the API reports.
		err = r.closedErr()
	}
	if err == nil {
		// δ learns from when the batch actually finished on this clock —
		// past the plan by whatever pacing and wake-ups added.
		oldest := br.reqs[0].Arrival
		for _, q := range br.reqs[1:] {
			oldest = min(oldest, q.Arrival)
		}
		r.observeBatchLatency(r.tl.Now() - oldest)
	}
	for i, q := range br.reqs {
		var res any
		if err == nil {
			res = results[i]
		}
		// Slots share the subset's immutable model-name slice; Future.Models
		// copies on read, so batch siblings stay isolated without a
		// per-request allocation here.
		q.slot.resolve(res, err, br.names, br.finish-q.Arrival)
	}
	br.release()
}

// failAll closes the queue and resolves every queued (undispatched) future
// with err. The queue lock linearizes it against Submit: a request is either
// popped here or refused by enqueue, and one popped into a batch earlier is
// never seen here, so no future resolves twice. Callers set closed first.
func (r *Runtime) failAll(err error) {
	r.qmu.Lock()
	r.qclosed = true
	queued := r.q.PopN(r.q.Len())
	r.qmu.Unlock()
	for _, q := range queued {
		q.slot.resolve(nil, err, nil, 0)
	}
}

// control runs a control operation: op runs under the dispatch lock on a
// live runtime (a closed or poisoned one returns its error instead), and
// when rerun is set and op succeeded, the decision point the change calls
// for runs at once.
func (r *Runtime) control(rerun bool, op func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return r.closedErr()
	}
	if err := op(); err != nil || !rerun {
		return err
	}
	return r.step(r.tl.Now())
}

// SetPolicy swaps the scheduling policy on the live runtime without dropping
// queued futures: requests already in the queue are simply decided by the new
// policy from the next decision point on (which runs immediately, so a less
// conservative policy can flush a waiting backlog at once). Batches already
// dispatched complete under the old decision. The per-model dispatch-share
// history resets — a new policy routes the stream differently, so the old
// shares would mis-split the backlog signal.
func (r *Runtime) SetPolicy(p Policy) error {
	return r.control(true, func() error {
		if p == nil {
			return fmt.Errorf("infer: nil policy")
		}
		r.policy = p
		r.metMu.Lock()
		r.popped = 0
		clear(r.dispatched)
		r.metMu.Unlock()
		return nil
	})
}

// SetBackend swaps the execution backend on the live runtime. Queued
// requests dispatch onto the new backend from the next decision point;
// batches already in flight drain on the old backend, which is closed (in
// the background) once the last of them finishes. Both the backend and the
// combiner that folds its predictions are required. The runtime takes
// ownership of the backend: pass a fresh instance, not one already
// installed.
func (r *Runtime) SetBackend(b Backend, combine CombineFunc) error {
	if b == nil || combine == nil {
		return fmt.Errorf("infer: SetBackend needs a backend and a combiner")
	}
	return r.control(false, func() error {
		old := r.backend.Swap(&backendHandle{b: b, combine: combine})
		if old != nil && old.b != b {
			// The drain rides the runtime's in-flight WaitGroup so Close
			// cannot return before the old backend is drained and closed.
			r.inflight.Add(1)
			go func() {
				defer r.inflight.Done()
				old.wg.Wait()
				_ = old.b.Close()
			}()
		}
		return nil
	})
}

// BackendName reports the live execution backend's name.
func (r *Runtime) BackendName() string { return r.backend.Load().b.Name() }

// PolicyName reports the live policy's name.
func (r *Runtime) PolicyName() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.policy.Name()
}

// SetSLO retargets the latency SLO τ on the live runtime, with the
// Algorithm 3 back-off floor δ = 0.1τ that hangs off it (restarting the δ
// controller there), then re-runs a decision point: a looser τ may justify
// waiting, a tighter one may demand an immediate flush. An SLO change is a
// statement about what counts as late from now on, so later completions are
// judged against the new τ.
func (r *Runtime) SetSLO(tau float64) error {
	return r.control(true, func() error {
		if tau <= 0 {
			return fmt.Errorf("infer: tau must be positive, got %v", tau)
		}
		r.d.Tau = tau
		r.d.BackoffDelta = 0.1 * tau
		r.resetBackoff()
		return nil
	})
}

// SetQueueCap rebounds the request queue on the live runtime to n ≥ 1.
// Shrinking below the current backlog keeps the queued requests — only new
// arrivals are rejected until the queue drains under the new cap. The
// runtime has no unbounded setting: a stalled backend keeps its replicas
// held, and the bound is what turns the backlog behind them into
// ErrQueueFull (a 429 over REST) instead of a queue that grows without
// limit.
func (r *Runtime) SetQueueCap(n int) error {
	if n < 1 {
		return fmt.Errorf("infer: queue cap must be positive, got %d", n)
	}
	return r.control(false, func() error {
		r.qmu.Lock()
		r.q.Cap = n
		r.qmu.Unlock()
		return nil
	})
}

// SetReplicas resizes model m's replica pool on the live runtime to n, then
// re-runs a decision point. Growing adds immediately free replicas, so
// queued requests flow onto the new capacity; shrinking drops the
// highest-indexed slots (their containers are being torn down), which stop
// taking new work while batches already in flight on them still complete.
func (r *Runtime) SetReplicas(m, n int) error {
	return r.control(true, func() error {
		if m < 0 || m >= len(r.pools) {
			return fmt.Errorf("infer: model index %d out of range", m)
		}
		if n < 1 {
			return fmt.Errorf("infer: model %s needs at least one replica, got %d", r.d.ModelNames[m], n)
		}
		r.occMu.Lock()
		defer r.occMu.Unlock()
		p := r.pools[m]
		if n > len(p) {
			p = append(p, make([]replica, n-len(p))...)
		}
		r.pools[m] = p[:n]
		return nil
	})
}

// AddReplica appends one replica slot for model m in the down state and
// returns its index — the scale-up staging step: slot first, container
// launch second, SetReplicaDown(m, r, false) once it is running, so a
// container that dies during launch always addresses a live slot index. No
// decision point runs (a down slot adds no capacity).
func (r *Runtime) AddReplica(m int) (int, error) {
	rep := 0
	err := r.control(false, func() error {
		if m < 0 || m >= len(r.pools) {
			return fmt.Errorf("infer: model index %d out of range", m)
		}
		r.occMu.Lock()
		defer r.occMu.Unlock()
		r.pools[m] = append(r.pools[m], replica{down: true})
		rep = len(r.pools[m]) - 1
		return nil
	})
	return rep, err
}

// SetReplicaDown marks replica rep of model m dead (down=true: dispatch skips
// it) or recovered (down=false), feeding the cluster manager's failure
// detection and container restarts back into dispatch availability.
// Recovery re-runs a decision point.
func (r *Runtime) SetReplicaDown(m, rep int, down bool) error {
	return r.control(!down, func() error {
		if m < 0 || m >= len(r.pools) {
			return fmt.Errorf("infer: model index %d out of range", m)
		}
		r.occMu.Lock()
		defer r.occMu.Unlock()
		p := r.pools[m]
		if rep < 0 || rep >= len(p) {
			return fmt.Errorf("infer: model %s has no replica %d", r.d.ModelNames[m], rep)
		}
		p[rep].down = down
		if !down {
			// A restarted container comes back idle regardless of what its
			// predecessor was doing; that pass's late release finds
			// busy-until moved and frees nothing.
			p[rep].busy, p[rep].held = 0, false
		}
		return nil
	})
}

// Backpressure reads the queue length and recent drain rate without the
// full Stats snapshot (no latency copy or percentile sort) — the rejection
// path calls this once per queue-full request, exactly when the runtime is
// saturated. It never blocks on the dispatch lock.
func (r *Runtime) Backpressure() (queueLen int, drainRate float64) {
	queueLen = r.queueLen()
	now := r.tl.Now()
	r.metMu.Lock()
	defer r.metMu.Unlock()
	return queueLen, r.met.drained.TotalSince(now-drainWindow) / drainWindow
}

// Signals snapshots the autoscaler's inputs: each model's backlog estimate
// (queued share + in-flight requests), the queue-growth rate (arrivals minus
// drains over the recent window, requests per timeline second), and the
// drain rate itself.
func (r *Runtime) Signals() (backlogs []ModelBacklog, growth, drainRate float64) {
	now := r.tl.Now()
	backlogs = r.backlogs(now, r.queueLen())
	r.flushArrivals()
	r.metMu.Lock()
	defer r.metMu.Unlock()
	arrival, drain := r.met.rates(now)
	return backlogs, arrival - drain, drain
}

// Stats snapshots the serving metrics. Every piece is read under its own
// leaf lock, so scraping stats never waits on the dispatch lock; the
// percentile sort runs on a copy outside any lock. The queue length is read
// once, so queue_len and the model_backlogs split describe one instant.
func (r *Runtime) Stats() Stats {
	now := r.tl.Now()
	st := Stats{QueueLen: r.queueLen()}
	r.flushArrivals()
	r.metMu.Lock()
	m := &r.met
	arrival, drain := m.rates(now)
	st.Served, st.Overdue, st.Dropped = m.served, m.overdue, m.dropped
	st.Decisions, st.Dispatches = int(r.decisions.Load()), m.dispatches
	st.Reward = m.reward
	// Every dispatch adds its batch to served and one count to its
	// histogram bin, so the histogram's mean is served per dispatch.
	if m.dispatches > 0 {
		st.BatchSizeMean = float64(m.served) / float64(m.dispatches)
	}
	st.BatchSizeHist = maps.Clone(m.batchSizes)
	latencies := slices.Clone(m.latencies)
	r.metMu.Unlock()
	st.DrainRate, st.QueueGrowth = drain, arrival-drain
	backlogs := r.backlogs(now, st.QueueLen)
	st.ModelBacklogs = make([]float64, len(backlogs))
	st.ModelInflight = make([]int, len(backlogs))
	for i, b := range backlogs {
		st.ModelBacklogs[i] = b.Queued
		st.ModelInflight[i] = b.Inflight
	}
	r.occMu.Lock()
	st.Replicas = make([]int, len(r.pools))
	for i := range r.pools {
		st.Replicas[i] = len(r.pools[i])
	}
	r.occMu.Unlock()
	pct := percentiles(latencies, 50, 99)
	st.P50Latency, st.P99Latency = pct[0], pct[1]
	st.ModelLatencyEWMA = make([]float64, len(r.lat))
	st.ModelLatencyScale = make([]float64, len(r.lat))
	for i := range r.lat {
		st.ModelLatencyEWMA[i] = math.Float64frombits(r.lat[i].obs.Load())
		st.ModelLatencyScale[i] = r.lat[i].scale()
	}
	st.BackoffDelta = r.backoffDelta()
	st.LateBatches = r.lateBatches.Load()
	st.BackendErrors = r.backendErrs.Load()
	h := r.backend.Load()
	st.Backend = h.b.Name()
	if rc, ok := h.b.(RetryCounter); ok {
		st.BackendRetries = rc.Retries()
	}
	return st
}

// Close rejects new submissions, fails queued (undispatched) futures with
// ErrClosed, and cancels in-flight backend work: dispatched batches whose
// passes have not completed fail fast with ErrClosed instead of racing
// teardown (or holding it hostage to a slow or hung backend). Close returns
// once the execution layer has fully drained and is idempotent.
func (r *Runtime) Close() {
	if r.closed.CompareAndSwap(false, true) {
		r.mu.Lock()
		r.failAll(ErrClosed)
		r.mu.Unlock()
	}
	// Cancel outside the CAS so a Close after a policy poisoning (which
	// flips closed without cancelling) still tears the backends down.
	r.execCancel()
	r.inflight.Wait()
	if h := r.backend.Load(); h != nil {
		h.wg.Wait()
		_ = h.b.Close()
	}
	if r.stopOnce.CompareAndSwap(false, true) {
		close(r.stopCh)
	}
	r.workerWG.Wait()
}

package infer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"rafiki/internal/ensemble"
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

// RuntimeConfig tunes a Runtime.
type RuntimeConfig struct {
	// Timeline drives time; nil defaults to a real-time WallTimeline.
	Timeline sim.Timeline
	// QueueCap bounds the request queue (0 = the simulator's default, 4096).
	// The bound is what turns a stalled backend into ErrQueueFull: its
	// replicas stay held, so queued requests wait for them, and admission
	// refuses once the queue is full instead of growing it without limit.
	QueueCap int
	// Backend executes each dispatched batch's per-model passes; nil
	// defaults to SimBackend (profiled pacing, no predictions — the
	// runtime's combiner computes the results from the payloads).
	Backend Backend
}

// Runtime is the wall-clock driver of the dispatch Engine: goroutine-safe,
// channel-fed, with per-request futures. Concurrent callers Submit payloads;
// the scheduling Policy groups them into shared batches; the Backend runs
// each selected model's pass over a batch and the CombineFunc folds the
// passes into one result per request.
//
// A submission takes one lock, the queue's: its future's slot rides in the
// queued request, so the FIFO is the only place a queued request lives. It
// then arms the coalesced sweep. Decision points run one at a time under the
// dispatch lock: the first submitter after an idle sweep schedules one, and
// every submission that lands while it is pending shares it. A policy error
// at a decision point poisons the runtime and reaches every queued caller
// through its future.
//
// Decision points mirror the Simulator's: every submission (via the
// coalesced sweep), every model freeing up, and the instant a waiting
// policy names (Action.Until), when Algorithm 3's deadline rule starts to
// hold without a new arrival. A model frees up when its backend pass
// returns: a dispatched replica stays busy until then, so replica occupancy
// is the runtime's only bound on concurrent backend passes.
type Runtime struct {
	tl sim.Timeline

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

	// mu is the dispatch lock: it serializes decision points with each
	// other and with reconfiguration and teardown, so a control operation
	// observes no in-flight sweep and may touch the whole engine. Lock
	// order: mu, then the engine's locks; never the reverse.
	mu  sync.Mutex
	eng *Engine
	// deadline is the earliest armed deadline wake not yet reached, +Inf
	// when none is armed. Guarded by mu. deadlineFn, the wake's cached
	// callback (no closure per arm), only schedules a coalesced sweep, so a
	// timer callback never blocks on the dispatch lock.
	deadline   float64
	deadlineFn func()
	// sweepSet coalesces decision points: only the submitter that flips it
	// schedules a sweep; everyone else piggybacks.
	sweepSet atomic.Bool
	// wake is the sweep worker's one-token run signal; workerStarted
	// latches its lazy spawn (concurrent timelines only).
	wake          chan struct{}
	workerStarted atomic.Bool

	// closed flips once (teardown or poison); errv holds the poisoning
	// engine error, stored before closed so closedErr never misses it.
	closed atomic.Bool
	errv   atomic.Value

	nextID   atomic.Uint64
	inflight sync.WaitGroup

	// stopCh stops the sweep worker and the pass workers; stopOnce latches
	// its close; workerWG tracks every worker so Close reaps them.
	stopCh   chan struct{}
	stopOnce atomic.Bool
	workerWG sync.WaitGroup
}

// NewRuntime wires a wall-clock serving runtime for a deployment, policy and
// combiner (which folds each batch's backend passes into per-request
// results). The accuracy table feeds Equation 7 reward accounting, exactly
// as in the simulator.
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
		queueCap = 4096
	}
	eng := NewEngine(d, p, acc, queueCap)
	eng.hold = true
	// Prime the accuracy surrogate for the full ensemble (the live path's
	// default subset): its first evaluation simulates the whole sample set
	// (~100ms+) and would otherwise stall the first dispatch — and every
	// Submit behind it — under the runtime lock.
	if acc != nil {
		_, _ = acc.Accuracy(d.ModelNames)
	}
	// A runtime lives as long as its deployment: bound the latency history
	// so memory stays flat and Stats percentiles cover a recent window,
	// and bound the rate windows the same way (the simulator keeps full
	// histories for figures; a live runtime only reads recent tails).
	eng.SetMetricBounds(4096, 64)
	_, concurrent := tl.(sim.ConcurrentTimeline)
	r := &Runtime{
		tl:       tl,
		syncExec: !concurrent,
		eng:      eng,
		deadline: math.Inf(1),
	}
	r.execCtx, r.execCancel = context.WithCancel(context.Background())
	b := cfg.Backend
	if b == nil {
		b = &SimBackend{}
	}
	if tb, ok := b.(TimelineBinder); ok {
		tb.BindTimeline(tl)
	}
	r.backend.Store(&backendHandle{b: b, combine: combine})
	r.deadlineFn = r.scheduleSweep
	r.passCh = make(chan passRef)
	r.stopCh = make(chan struct{})
	r.wake = make(chan struct{}, 1)
	return r, nil
}

// closedErr reports why the runtime rejects work: the poisoning engine error
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
	if !r.eng.Enqueue(now, Request{ID: id, Arrival: now, slot: s}) {
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
		r.tl.AfterFunc(0, r.sweep)
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
	outs, err := r.eng.Step(now)
	for _, out := range outs {
		r.launch(now, out)
	}
	if err != nil {
		// A policy/dispatch error poisons the runtime: requests left in the
		// engine queue have no valid schedule anymore, so close the runtime
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
	if u := r.eng.until; u > 0 && u < r.deadline {
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

// batchRun is one dispatched batch's execution state: the per-model backend
// passes fill preds, the last one to finish finalizes the futures. Runs are
// pooled: only the launch → model-pass → finalize pipeline touches a run
// (waiters touch just their own slot), so once finalize has resolved every
// slot the run and its slices go back to the pool, and the dispatch hot path
// runs batch after batch without growing the heap. Backends and combiners
// must not retain the ID/payload slices beyond the call, which the ExecTask
// contract already requires.
type batchRun struct {
	out      DispatchOutcome
	futs     []*futureSlot
	ids      []uint64
	payloads []any
	h        *backendHandle
	// preds[k] is model k's predictions; remaining counts unfinished model
	// passes.
	preds     [][]any
	remaining atomic.Int32
	// failed/err record the first model pass failure; written before the
	// pass's remaining decrement, so finalize (which runs after observing
	// zero) always sees it.
	failed atomic.Bool
	err    error
}

var batchRunPool = sync.Pool{New: func() any { return new(batchRun) }}

// grab sizes the run's slices for a batch of n requests across m models,
// reusing prior capacity.
func (br *batchRun) grab(n, m int) {
	if cap(br.futs) < n {
		br.futs = make([]*futureSlot, n)
		br.ids = make([]uint64, n)
		br.payloads = make([]any, n)
	} else {
		br.futs = br.futs[:n]
		br.ids = br.ids[:n]
		br.payloads = br.payloads[:n]
	}
	if cap(br.preds) < m {
		br.preds = make([][]any, m)
	} else {
		br.preds = br.preds[:m]
	}
}

// release clears every reference the run holds and returns it to the pool.
// Called at the end of finalize, after the last read of the run.
func (br *batchRun) release() {
	for i := range br.futs {
		br.futs[i] = nil
		br.payloads[i] = nil
	}
	for i := range br.preds {
		br.preds[i] = nil
	}
	br.out = DispatchOutcome{}
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

// task builds model pass i's ExecTask view of the batch.
func (br *batchRun) task(i int) ExecTask {
	return ExecTask{
		Model:          br.out.ModelNames[i],
		ModelIndex:     br.out.Models[i],
		IDs:            br.ids,
		Payloads:       br.payloads,
		Decided:        br.out.Decided,
		ProfiledFinish: br.out.ModelFinish[i],
	}
}

// launch hands a dispatched batch to the execution layer. On a concurrent
// timeline each model pass goes to a pass worker at once (the SimBackend
// paces to the profiled finish; real backends run for as long as they run);
// on a virtual-time loop each pass runs inline from its own model's finish
// event, preserving the loop's determinism. Called with the dispatch lock
// held.
func (r *Runtime) launch(now float64, out DispatchOutcome) {
	br := batchRunPool.Get().(*batchRun)
	br.grab(len(out.Requests), len(out.Models))
	br.out = out
	br.h = r.backend.Load()
	br.h.wg.Add(1)
	r.inflight.Add(1)
	br.remaining.Store(int32(len(out.Models)))
	// The popped requests carry their slots: the run holds them until
	// finalize resolves them.
	for i, req := range out.Requests {
		br.ids[i] = req.ID
		br.futs[i] = req.slot
		br.payloads[i] = req.slot.payload
	}
	for i := range out.Models {
		if r.syncExec {
			r.tl.AfterFunc(out.ModelFinish[i]-now, func() { r.runModelPass(br, i) })
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
// latency back into the engine's planning EWMA. Then it releases the pass's
// replica, finalizes the batch if this was its last pass, and runs the
// decision point the freed replica calls for.
func (r *Runtime) runModelPass(br *batchRun, i int) {
	preds, obs, err := br.h.b.Execute(r.execCtx, br.task(i))
	if err != nil {
		r.backendErrs.Add(1)
		br.fail(err)
	} else {
		br.preds[i] = preds
		r.eng.ObserveLatency(br.out.Models[i], len(br.ids), obs)
	}
	r.eng.release(br.out.Models[i], br.out.Replicas[i], br.out.ModelFinish[i], r.tl.Now())
	if br.remaining.Add(-1) == 0 {
		r.finalize(br)
	}
	r.onModelFree()
}

// onModelFree is the decision point at a returned model pass: the freed
// replica is new capacity, so a backlog gets a coalesced sweep. It only
// schedules the sweep, so a pass worker never blocks on the dispatch lock.
func (r *Runtime) onModelFree() {
	if !r.closed.Load() && r.eng.QueueLen() > 0 {
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
		results, err = h.combine(br.ids, br.payloads, br.out.ModelNames, br.preds)
		if err == nil && len(results) != len(br.futs) {
			err = fmt.Errorf("infer: combiner returned %d results for a batch of %d", len(results), len(br.futs))
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
		oldest := br.out.Requests[0].Arrival
		for _, q := range br.out.Requests[1:] {
			oldest = min(oldest, q.Arrival)
		}
		r.eng.observeBatchLatency(r.tl.Now() - oldest)
	}
	for i, s := range br.futs {
		var res any
		if err == nil {
			res = results[i]
		}
		// Slots share the outcome's model-name slice; Future.Models copies
		// on read, so batch siblings stay isolated without a per-request
		// allocation here.
		s.resolve(res, err, br.out.ModelNames, br.out.Finish-br.out.Requests[i].Arrival)
	}
	br.release()
}

// failAll closes the engine queue and resolves every queued (undispatched)
// future with err. The queue lock linearizes it against Submit: a request is
// either popped here or refused by Enqueue, and one popped into a batch
// earlier is never seen here, so no future resolves twice. Callers set closed
// first.
func (r *Runtime) failAll(err error) {
	for _, q := range r.eng.closeQueue() {
		q.slot.resolve(nil, err, nil, 0)
	}
}

// SetPolicy swaps the scheduling policy on the live runtime without dropping
// queued futures: requests already in the queue are simply decided by the new
// policy from the next decision point on (which runs immediately, so a less
// conservative policy can flush a waiting backlog at once). Batches already
// dispatched complete under the old decision.
func (r *Runtime) SetPolicy(p Policy) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return r.closedErr()
	}
	if err := r.eng.SetPolicy(p); err != nil {
		return err
	}
	return r.step(r.tl.Now())
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
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return r.closedErr()
	}
	if tb, ok := b.(TimelineBinder); ok {
		tb.BindTimeline(r.tl)
	}
	old := r.backend.Swap(&backendHandle{b: b, combine: combine})
	if old != nil && old.b != b {
		// The drain rides the runtime's in-flight WaitGroup so Close cannot
		// return before the old backend is drained and closed.
		r.inflight.Add(1)
		go func() {
			defer r.inflight.Done()
			old.wg.Wait()
			_ = old.b.Close()
		}()
	}
	return nil
}

// BackendName reports the live execution backend's name.
func (r *Runtime) BackendName() string { return r.backend.Load().b.Name() }

// PolicyName reports the live policy's name.
func (r *Runtime) PolicyName() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.Policy.Name()
}

// SetSLO retargets the latency SLO τ on the live runtime, then re-runs a
// decision point (a looser τ may justify waiting, a tighter one may demand
// an immediate flush).
func (r *Runtime) SetSLO(tau float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return r.closedErr()
	}
	if err := r.eng.SetTau(tau); err != nil {
		return err
	}
	return r.step(r.tl.Now())
}

// SetQueueCap rebounds the request queue on the live runtime to n ≥ 1 (see
// Engine.SetQueueCap for the shrink semantics). The runtime has no unbounded
// setting: a stalled backend keeps its replicas held, and the bound is what
// turns the backlog behind them into ErrQueueFull (a 429 over REST) instead
// of a queue that grows without limit.
func (r *Runtime) SetQueueCap(n int) error {
	if n < 1 {
		return fmt.Errorf("infer: queue cap must be positive, got %d", n)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return r.closedErr()
	}
	return r.eng.SetQueueCap(n)
}

// SetReplicas resizes model m's replica pool on the live runtime. Growing
// immediately re-runs a decision point so queued requests flow onto the new
// capacity; shrinking stops dispatching to the dropped slots while batches
// already in flight on them still complete.
func (r *Runtime) SetReplicas(m, n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return r.closedErr()
	}
	if err := r.eng.SetReplicas(m, n); err != nil {
		return err
	}
	return r.step(r.tl.Now())
}

// AddReplica appends one replica slot for model m in the down state and
// returns its index — the scale-up staging step: slot first, container
// launch second, SetReplicaDown(m, r, false) once it is running. No
// decision point runs (a down slot adds no capacity).
func (r *Runtime) AddReplica(m int) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return 0, r.closedErr()
	}
	return r.eng.AddReplica(m)
}

// SetReplicaDown marks replica rep of model m dead or recovered, feeding the
// cluster manager's failure detection and container restarts back into
// dispatch availability. Recovery re-runs a decision point.
func (r *Runtime) SetReplicaDown(m, rep int, down bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return r.closedErr()
	}
	if err := r.eng.SetReplicaDown(m, rep, down); err != nil {
		return err
	}
	if down {
		return nil
	}
	return r.step(r.tl.Now())
}

// Backpressure reads the queue length and recent drain rate without the
// full Stats snapshot (no latency copy or percentile sort) — the rejection
// path calls this once per queue-full request, exactly when the runtime is
// saturated. It never blocks on the dispatch lock.
func (r *Runtime) Backpressure() (queueLen int, drainRate float64) {
	return r.eng.QueueLen(), r.eng.DrainRate(r.tl.Now(), drainWindow)
}

// Signals snapshots the autoscaler's inputs: each model's backlog estimate
// (queued share + in-flight requests), the queue-growth rate (arrivals minus
// drains over the recent window, requests per timeline second), and the
// drain rate itself.
func (r *Runtime) Signals() (backlogs []ModelBacklog, growth, drainRate float64) {
	now := r.tl.Now()
	backlogs = r.eng.Backlogs(now)
	arrivals, drain := r.eng.Rates(now, drainWindow)
	return backlogs, arrivals - drain, drain
}

// Stats snapshots the serving metrics. Every piece is read under its own
// engine lock, so scraping stats never waits on the dispatch lock; the
// percentile sort runs on a copy outside any lock.
func (r *Runtime) Stats() Stats {
	now := r.tl.Now()
	snap := r.eng.SnapshotMetrics(now, drainWindow)
	backlogs := r.eng.Backlogs(now)
	st := Stats{
		Served:        snap.Served,
		Overdue:       snap.Overdue,
		Dropped:       snap.Dropped,
		Decisions:     snap.Decisions,
		Dispatches:    snap.Dispatches,
		QueueLen:      r.eng.QueueLen(),
		Reward:        snap.Reward,
		Replicas:      r.eng.ReplicaCounts(),
		DrainRate:     snap.DrainRate,
		BatchSizeMean: snap.BatchSizeMean,
		BatchSizeHist: snap.BatchSizes,
		ModelBacklogs: make([]float64, len(backlogs)),
		ModelInflight: make([]int, len(backlogs)),
		QueueGrowth:   snap.ArrivalRate - snap.DrainRate,
	}
	for i, b := range backlogs {
		st.ModelBacklogs[i] = b.Queued
		st.ModelInflight[i] = b.Inflight
	}
	pct := percentiles(snap.Latencies, 50, 99)
	st.P50Latency, st.P99Latency = pct[0], pct[1]
	st.ModelLatencyEWMA, st.ModelLatencyScale = r.eng.LatencyFeedback()
	st.BackoffDelta = r.eng.backoffDelta()
	st.LateBatches = r.eng.lateBatches.Load()
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

package infer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rafiki/internal/ensemble"
	"rafiki/internal/infer/executor"
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
	// ExecWorkers/ExecBusy/ExecQueueDepth are the per-model executor-pool
	// gauges (parallel to the model list): target worker count (= the
	// replica count), workers running a backend pass right now, and batches
	// waiting for a worker. Empty under a virtual-time driver, which
	// executes inline instead of on pools.
	ExecWorkers    []int `json:"exec_workers,omitempty"`
	ExecBusy       []int `json:"exec_busy,omitempty"`
	ExecQueueDepth []int `json:"exec_queue_depth,omitempty"`
	// ExecRejected counts dispatched batches refused by a saturated pool
	// (failed with ErrBackendSaturated); BackendErrors failed backend
	// passes; BackendRetries the backend's internal retries (HTTP).
	ExecRejected   uint64 `json:"exec_rejected"`
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
// coalesced sweep), every model freeing up, and a poll tick while requests
// wait.
type Runtime struct {
	tl sim.Timeline
	// poll is the re-decision cadence (τ/25 timeline seconds) while requests
	// wait in a non-empty queue — the wall-clock analogue of the Simulator's
	// arrival tick, which lets deadline-pressure dispatches (Algorithm 3
	// line 7) fire without a new arrival.
	poll float64

	// syncExec marks a non-concurrent timeline (the virtual-time EventLoop,
	// whose event heap is unlocked and whose callbacks fire single-threaded
	// from Step/RunUntil): backend passes then run inline from the batch's
	// finish event, preserving the loop's determinism, instead of on the
	// executor pools.
	syncExec bool
	// pools[m] is model m's bounded worker pool (workers = replica count,
	// live-resized on scale events); nil under syncExec.
	pools []*executor.Pool
	// execQueueCap bounds each pool's submit queue: the request-queue
	// capacity, which a batch of admitted requests can never exceed.
	execQueueCap int
	// backend is the live backend handle; SetBackend swaps it and drains
	// the old handle's in-flight batches before closing its backend.
	backend atomic.Pointer[backendHandle]
	// execCtx cancels on Close, failing in-flight backend work fast so
	// teardown never waits out a slow or hung backend.
	execCtx    context.Context
	execCancel context.CancelFunc

	execRejected atomic.Uint64
	backendErrs  atomic.Uint64

	// mu is the dispatch lock: it serializes decision points with each
	// other and with reconfiguration and teardown, so a control operation
	// observes no in-flight sweep and may touch the whole engine. Lock
	// order: mu, then the engine's locks; never the reverse.
	mu  sync.Mutex
	eng *Engine
	// sweepSet coalesces decision points: only the submitter that flips it
	// schedules a sweep; everyone else piggybacks.
	sweepSet atomic.Bool
	// pollSet marks a pending wait-poll tick. Atomic so the poll timer
	// callback can clear it and re-route through the sweep worker without
	// taking the dispatch lock (timer callbacks must stay cheap: a callback
	// blocked on a busy dispatch lock is a goroutine pinned for the whole
	// wait).
	pollSet atomic.Bool
	// wake is the sweep worker's one-token run signal; workerStarted
	// latches its lazy spawn (concurrent timelines only).
	wake          chan struct{}
	workerStarted atomic.Bool
	// pollFn is the cached poll-timer callback, so arming a poll does not
	// allocate a fresh closure per tick.
	pollFn func()

	// closed flips once (teardown or poison); errv holds the poisoning
	// engine error, stored before closed so closedErr never misses it.
	closed atomic.Bool
	errv   atomic.Value

	nextID   atomic.Uint64
	inflight sync.WaitGroup

	// onFreeFn is the cached onModelFree method value, so arming a finish
	// timer per dispatched model does not allocate a closure each time.
	onFreeFn func()
	// stopCh stops the sweep worker; stopOnce latches its close; workerWG
	// tracks the worker so Close reaps it.
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
		tl:           tl,
		poll:         d.Tau / 25,
		syncExec:     !concurrent,
		execQueueCap: queueCap,
		eng:          eng,
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
	if !r.syncExec {
		counts := eng.ReplicaCounts()
		r.pools = make([]*executor.Pool, len(counts))
		for m, n := range counts {
			r.pools[m] = executor.NewPool(n, queueCap)
		}
	}
	r.onFreeFn = r.onModelFree
	r.pollFn = r.pollTick
	r.stopCh = make(chan struct{})
	r.wake = make(chan struct{}, 1)
	return r, nil
}

// resizePools retargets every model pool to the engine's live replica slot
// counts. Called after any replica-pool mutation, under the exclusive
// dispatch lock.
func (r *Runtime) resizePools() {
	if r.pools == nil {
		return
	}
	counts := r.eng.ReplicaCounts()
	for m, p := range r.pools {
		if m < len(counts) {
			p.Resize(counts[m], r.execQueueCap)
		}
	}
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
	// the drain path. TryLock keeps every caller (submitters, timer
	// dispatcher callbacks) non-blocking; contention falls back to the
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

// step runs one decision point, launching its dispatches and arming the wait
// poll. Called with the dispatch lock held.
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
	if r.eng.QueueLen() > 0 && r.pollSet.CompareAndSwap(false, true) {
		r.tl.AfterFunc(r.poll, r.pollFn)
	}
	return nil
}

// pollTick is the recurring decision point while requests wait. On a wall
// timeline the timer callback only clears the poll flag and schedules a
// sweep — it must not block on the dispatch lock, because every fired
// wall-timer callback is its own goroutine and a busy lock would pin them
// all. The virtual-time loop steps inline, keeping its event ordering.
func (r *Runtime) pollTick() {
	if !r.syncExec {
		r.pollSet.Store(false)
		if r.closed.Load() {
			return
		}
		r.scheduleSweep()
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pollSet.Store(false)
	if r.closed.Load() {
		return
	}
	_ = r.step(r.tl.Now())
}

// backendHandle binds a backend to the combiner that folds its predictions,
// and tracks the batches in flight on it so a swap can drain the old backend
// before closing it.
type backendHandle struct {
	b       Backend
	combine CombineFunc
	wg      sync.WaitGroup
}

// batchBufs is the recyclable slice set a batchRun works out of: claimed
// futures, request IDs, payloads handed to the backend and per-model
// prediction buffers. Only the launch → model-pass → finalize pipeline ever
// touches these (waiters touch just the slot and the done channel), so once
// finalize has resolved every slot the set goes back to the pool — the
// dispatch hot path then runs batch after batch without growing the heap.
// Backends and combiners must not retain the ID/payload slices beyond the
// call, which the ExecTask contract already requires.
type batchBufs struct {
	futs     []*futureSlot
	ids      []uint64
	payloads []any
	preds    [][]any
}

var batchBufsPool = sync.Pool{New: func() any { return new(batchBufs) }}

// grab sizes the buffer set for a batch of n requests across m models,
// reusing prior capacity.
func (bb *batchBufs) grab(n, m int) {
	if cap(bb.futs) < n {
		bb.futs = make([]*futureSlot, n)
		bb.ids = make([]uint64, n)
		bb.payloads = make([]any, n)
	} else {
		bb.futs = bb.futs[:n]
		bb.ids = bb.ids[:n]
		bb.payloads = bb.payloads[:n]
	}
	if cap(bb.preds) < m {
		bb.preds = make([][]any, m)
	} else {
		bb.preds = bb.preds[:m]
	}
}

// release clears every reference the buffers hold and returns the set to the
// pool. Called at the end of finalize, after the last read of any buffer.
func (bb *batchBufs) release() {
	for i := range bb.futs {
		bb.futs[i] = nil
		bb.payloads[i] = nil
	}
	for i := range bb.preds {
		bb.preds[i] = nil
	}
	batchBufsPool.Put(bb)
}

// batchRun is one dispatched batch's execution state: the per-model backend
// passes fill preds, the last one to finish finalizes the futures.
type batchRun struct {
	rt       *Runtime
	out      DispatchOutcome
	bufs     *batchBufs
	futs     []*futureSlot
	ids      []uint64
	payloads []any
	h        *backendHandle
	// done is the batch-wide completion broadcast: finalize closes it once,
	// after resolving every slot, so a 64-wide batch wakes all its waiters
	// with a single channel close.
	done chan struct{}
	// preds[k] is model k's predictions; remaining counts unfinished model
	// passes.
	preds     [][]any
	remaining atomic.Int32
	// failOnce/err record the first model pass failure; written before the
	// pass's remaining decrement, so finalize (which runs after observing
	// zero) always sees it.
	failOnce sync.Once
	err      error
}

func (br *batchRun) fail(err error) {
	br.failOnce.Do(func() { br.err = err })
}

// task builds model pass i's ExecTask view of the batch.
func (br *batchRun) task(i int) ExecTask {
	return ExecTask{
		Model:           br.out.ModelNames[i],
		ModelIndex:      br.out.Models[i],
		IDs:             br.ids,
		Payloads:        br.payloads,
		Decided:         br.out.Decided,
		ProfiledFinish:  br.out.ModelFinish[i],
		ProfiledLatency: br.out.ModelLatency[i],
	}
}

// launch hands a dispatched batch to the execution layer and schedules the
// follow-up decision points at each model's profiled finish time. On a
// concurrent timeline each model pass goes to the model's bounded pool
// immediately (the SimBackend paces to the profiled finish; real backends
// run for as long as they run); on a virtual-time loop the passes run
// inline from the finish event, preserving the loop's determinism. Called
// with the dispatch lock held.
func (r *Runtime) launch(now float64, out DispatchOutcome) {
	bufs := batchBufsPool.Get().(*batchBufs)
	bufs.grab(len(out.Requests), len(out.Models))
	futs, ids, payloads := bufs.futs, bufs.ids, bufs.payloads
	h := r.backend.Load()
	h.wg.Add(1)
	r.inflight.Add(1)
	// The batchRun itself is NOT pooled: a waiter that loaded s.br may still
	// be about to read br.done after finalize broadcasts, so the struct must
	// stay immutable until the GC proves it unreachable. Its slices live in
	// the pooled bufs, which only the launch→pass→finalize pipeline touches.
	br := &batchRun{rt: r, out: out, bufs: bufs, futs: futs, ids: ids,
		payloads: payloads, h: h, done: make(chan struct{}), preds: bufs.preds}
	br.remaining.Store(int32(len(out.Models)))
	// The popped requests carry their slots: move each onto the batch and
	// unpark any waiter that arrived before dispatch (it moves onto the
	// batch's broadcast channel).
	for i, req := range out.Requests {
		s := req.slot
		ids[i] = req.ID
		futs[i] = s
		payloads[i] = s.payload
		s.br = br
		s.state.Store(futDispatched)
		s.wakeWaiter()
	}
	if r.syncExec {
		r.tl.AfterFunc(out.Finish-now, func() {
			for i := range br.out.Models {
				r.runModelPass(br, i)
			}
		})
	} else {
		for i := range out.Models {
			// SubmitFunc + the package-level trampoline keep the hot path
			// free of per-pass closure allocations.
			if err := r.pools[out.Models[i]].SubmitFunc(runPassFn, br, i); err != nil {
				r.execRejected.Add(1)
				if errors.Is(err, executor.ErrSaturated) {
					err = ErrBackendSaturated
				} else {
					err = r.closedErr()
				}
				br.fail(err)
				r.passDone(br)
			}
		}
	}
	for _, f := range out.ModelFinish {
		r.tl.AfterFunc(f-now, r.onFreeFn)
	}
}

// runPassFn is the allocation-free executor trampoline for model passes:
// the batch rides the pool queue as the untyped arg, so no per-pass closure
// is built on the dispatch hot path.
var runPassFn = func(arg any, i int) {
	br := arg.(*batchRun)
	br.rt.runModelPass(br, i)
}

// runModelPass executes one model's backend pass and feeds the observed
// latency back into the engine's planning EWMA.
func (r *Runtime) runModelPass(br *batchRun, i int) {
	preds, obs, err := br.h.b.Execute(r.execCtx, br.task(i))
	if err != nil {
		r.backendErrs.Add(1)
		br.fail(err)
	} else {
		br.preds[i] = preds
		r.eng.ObserveLatency(br.out.Models[i], len(br.ids), obs)
	}
	r.passDone(br)
}

// passDone retires one model pass; the last one finalizes the batch.
func (r *Runtime) passDone(br *batchRun) {
	if br.remaining.Add(-1) == 0 {
		r.finalize(br)
	}
}

// onModelFree is the decision point at a dispatched model's finish time: the
// freed replica is new capacity, so a backlog gets a coalesced sweep. On a
// wall timeline this runs as a fired-timer callback on its own goroutine and
// must not block on the dispatch lock (each blocked callback is a pinned
// goroutine — the source of the old bench rows' 700+ goroutine peaks), so it
// only schedules the sweep.
func (r *Runtime) onModelFree() {
	if !r.closed.Load() && r.eng.QueueLen() > 0 {
		r.scheduleSweep()
	}
}

// finalize folds a finished batch's model passes into per-request results
// through the handle's combiner and resolves its futures.
func (r *Runtime) finalize(br *batchRun) {
	defer r.inflight.Done()
	defer br.h.wg.Done()
	err := br.err
	var results []any
	if err == nil {
		results, err = br.h.combine(br.ids, br.payloads, br.out.ModelNames, br.preds)
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
		// Slots share the outcome's model-name slice; Future.Models copies
		// on read, so batch siblings stay isolated without a per-request
		// allocation here.
		s.models = br.out.ModelNames
		s.latency = br.out.Finish - br.out.Requests[i].Arrival
		if err != nil {
			s.err = err
		} else {
			s.result = results[i]
		}
		// Drop the input bytes: payloads must not outlive the request.
		s.payload = nil
		br.payloads[i] = nil
		s.state.Store(futResolved)
		s.closeDone()
	}
	// One broadcast resolves every waiter in the batch; the buffers go back
	// to the pool after their last read above (waiters never touch them).
	close(br.done)
	br.bufs.release()
}

// failAll closes the engine queue and resolves every queued (undispatched)
// future with err. The queue lock linearizes it against Submit: a request is
// either popped here or refused by Enqueue, and one popped into a batch
// earlier is never seen here, so no future resolves twice. Callers set closed
// first.
func (r *Runtime) failAll(err error) {
	for _, q := range r.eng.closeQueue() {
		q.slot.resolveLocal(err)
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

// SetSLO retargets the latency SLO τ on the live runtime and rescales the
// wait-poll cadence with it, then re-runs a decision point (a looser τ may
// justify waiting, a tighter one may demand an immediate flush).
func (r *Runtime) SetSLO(tau float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return r.closedErr()
	}
	if err := r.eng.SetTau(tau); err != nil {
		return err
	}
	r.poll = tau / 25
	return r.step(r.tl.Now())
}

// SetQueueCap rebounds the request queue on the live runtime to n ≥ 1 (see
// Engine.SetQueueCap for the shrink semantics). The executor pools' queues
// take the same bound, which is why the runtime has no unbounded setting.
func (r *Runtime) SetQueueCap(n int) error {
	if n < 1 {
		return fmt.Errorf("infer: queue cap must be positive, got %d", n)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return r.closedErr()
	}
	if err := r.eng.SetQueueCap(n); err != nil {
		return err
	}
	// The pool-queue bound tracks the request-queue capacity so an executor
	// queue never rejects a batch of admitted requests.
	r.execQueueCap = n
	r.resizePools()
	return nil
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
	r.resizePools()
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
	idx, err := r.eng.AddReplica(m)
	if err == nil {
		r.resizePools()
	}
	return idx, err
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
	st.ExecRejected = r.execRejected.Load()
	st.BackendErrors = r.backendErrs.Load()
	h := r.backend.Load()
	st.Backend = h.b.Name()
	if rc, ok := h.b.(RetryCounter); ok {
		st.BackendRetries = rc.Retries()
	}
	if r.pools != nil {
		st.ExecWorkers = make([]int, len(r.pools))
		st.ExecBusy = make([]int, len(r.pools))
		st.ExecQueueDepth = make([]int, len(r.pools))
		for m, p := range r.pools {
			ps := p.Stats()
			st.ExecWorkers[m] = ps.Workers
			st.ExecBusy[m] = ps.Busy
			st.ExecQueueDepth[m] = ps.QueueDepth
		}
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
	for _, p := range r.pools {
		p.Close()
	}
	if h := r.backend.Load(); h != nil {
		h.wg.Wait()
		_ = h.b.Close()
	}
	if r.stopOnce.CompareAndSwap(false, true) {
		close(r.stopCh)
	}
	r.workerWG.Wait()
}

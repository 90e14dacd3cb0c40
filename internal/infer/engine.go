package infer

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"rafiki/internal/ensemble"
	"rafiki/internal/metrics"
)

// DispatchOutcome records one executed dispatch decision: which requests
// went to which models and when the work is planned to complete. The Runtime
// runs each model's pass, releases the pass's replica when it returns
// (Engine.release), schedules a new decision point (Engine.Step) then, and
// delivers results once the batch is done.
type DispatchOutcome struct {
	// Requests is the dispatched batch, oldest first.
	Requests []Request
	// Models are the serving model indices; ModelNames the matching names.
	Models     []int
	ModelNames []string
	// Replicas[i] is the replica slot of Models[i] that serves the batch.
	Replicas []int
	// Decided is the decision time; ModelFinish[i] is when Models[i] frees
	// up; Finish is the ensemble completion (the slowest selected model).
	Decided     float64
	ModelFinish []float64
	Finish      float64
	// Reward is the action's Equation 7 reward.
	Reward float64
}

// arrivalEvent buffers one Enqueue's metric side effects. Arrivals happen off
// the decision loop (concurrent Submits take only the queue lock), so Enqueue
// records the event and the next decision point or metric read folds it into
// the metrics. at is the request's arrival.
type arrivalEvent struct {
	at      float64
	dropped bool
}

// replicaPool is one model's replicas: each one's busy-until time, down flag,
// the size of the batch it is running, and whether a backend pass still holds
// it. Guarded by Engine.occMu.
type replicaPool struct {
	busy     []float64
	down     []bool
	repBatch []int
	// held marks a replica whose dispatched pass has not returned yet: it
	// stays busy past its planned busy-until until release frees it.
	held []bool
}

// ModelBacklog is one model's demand signal, derived from the queue's
// counters: how much queued work the model is expected to absorb and
// how much it already has in flight. The autoscaler sizes its step from these
// instead of the shared queue depth.
type ModelBacklog struct {
	// Queued estimates how many queued requests this model will serve: the
	// total backlog split by the model's share of recently dispatched
	// requests (1.0 — every request — before any dispatch history, which is
	// exact for the synchronous full-ensemble policy).
	Queued float64
	// Inflight counts requests dispatched to the model in batches that have
	// not finished at the observation time.
	Inflight int
}

// modelView is one decision point's view of the replica pools: the replica
// each free model would serve on, and how long the others stay busy.
type modelView struct {
	// rep[m] is the earliest-free live replica of model m when it is free
	// at the decision time, -1 otherwise.
	rep []int
	// free[m] mirrors rep[m] >= 0 — the policy's FreeModels view.
	free []bool
	// until[m] is the earliest busy-until among the live replicas of a busy
	// model (absolute time), used for busy-left features and the "busy
	// until" dispatch error.
	until []float64
	// allDown[m] marks a model with no live replica at all.
	allDown []bool
	// n counts free models.
	n int
}

// reset sizes the view for nm models and clears every per-model slot,
// reusing the backing slices when they are already big enough.
func (v *modelView) reset(nm int) {
	if cap(v.rep) < nm {
		v.rep = make([]int, nm)
		v.free = make([]bool, nm)
		v.until = make([]float64, nm)
		v.allDown = make([]bool, nm)
	}
	v.rep = v.rep[:nm]
	v.free = v.free[:nm]
	v.until = v.until[:nm]
	v.allDown = v.allDown[:nm]
	for m := 0; m < nm; m++ {
		v.rep[m], v.free[m], v.until[m], v.allDown[m] = -1, false, 0, false
	}
	v.n = 0
}

// Engine is the clock-agnostic core of the serving service: the FIFO request
// queue, replica occupancy tracking, policy invocation with Equation 7
// reward accounting, and metrics. It never reads a clock — a request carries
// its arrival, decision points take the current time, and completion times
// come back to the caller as data — so the one Runtime that drives it serves
// on the wall clock and, for the paper's figures, on a virtual-time event
// loop (DESIGN.md §6, §10). A dispatched replica stays held until the
// Runtime releases it when the pass returns.
//
// Concurrency contract: Enqueue is safe for concurrent use (it takes only the
// queue lock), and so are the readers (QueueLen, ReplicaCounts,
// SnapshotMetrics, DrainRate, Rates, Backlogs). Step and every mutator
// (SetReplicas, SetPolicy, ...) require the caller to serialize them: the
// Runtime holds its dispatch lock.
type Engine struct {
	Deployment *Deployment
	Policy     Policy
	// AccTable provides the surrogate ensemble accuracy a(M[v]) for rewards.
	AccTable *ensemble.AccuracyTable
	// accByMask fronts AccTable on the dispatch hot path: model subsets with
	// indices under 64 key a bitmask → accuracy cache, skipping the
	// sort+join subset-key build and table lock per dispatch. Values are the
	// table's own (deterministic) results, so the two caches never disagree.
	// Only dispatch (inside Step) touches it, so Step's serialization guards
	// it.
	accByMask map[uint64]float64

	// qmu guards the request FIFO q (whose Cap is the queue bound), the
	// arrival-event buffers and closed. spare is the buffer the last flush
	// drained: the next flush swaps it in, so two buffers alternate and
	// Enqueue's append stops allocating. closed marks a queue drained by
	// closeQueue; Enqueue then refuses.
	qmu    sync.Mutex
	q      *Queue
	events []arrivalEvent
	spare  []arrivalEvent
	closed bool

	// view and st are the decision scratch, reused across decision points
	// (policies must not retain *State or its slices across calls — the
	// online RL adapter copies what it rewrites). Only Step touches them.
	view modelView
	st   State
	// until is the Action.Until of the wait that ended the last Step, 0
	// when something else ended it. Only Step writes it; the Runtime arms its
	// deadline wake from it.
	until float64

	// occMu guards the replica pools. pools itself is fixed at construction
	// (the deployment's model set never changes); each pool's slices resize
	// under the lock.
	occMu sync.Mutex
	pools []replicaPool

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
	// feeding Backlogs (dispatched/popped).
	metMu      sync.Mutex
	met        engineMetrics
	dispatched []uint64
	popped     uint64

	// decisions counts policy decision points. It is bumped once per
	// Decide, outside metMu, and read by SnapshotMetrics.
	decisions atomic.Uint64
}

// NewEngine wires an engine whose queue holds queueCap requests (0 =
// unbounded; the paper drops arrivals beyond a full queue). Its metric plane
// is bounded for an engine that lives as long as its deployment: it keeps
// the latencyKeep most recent latencies and rateKeep seconds of rates.
func NewEngine(d *Deployment, p Policy, acc *ensemble.AccuracyTable, queueCap int) *Engine {
	e := &Engine{
		Deployment: d,
		Policy:     p,
		AccTable:   acc,
		accByMask:  make(map[uint64]float64),
		q:          NewQueue(queueCap),
		pools:      make([]replicaPool, len(d.Profiles)),
		lat:        make([]latModel, len(d.Profiles)),
		table:      slices.Clone(d.LatencyTable()),
		dispatched: make([]uint64, len(d.Profiles)),
		met: engineMetrics{
			arrivals:   metrics.NewWindowCounter(1),
			drained:    metrics.NewWindowCounter(1),
			batchSizes: map[int]int{},
		},
	}
	e.met.arrivals.Keep, e.met.drained.Keep = rateKeep, rateKeep
	for m := range e.pools {
		e.lat[m].raw.Store(math.Float64bits(1))
		e.lat[m].applied = 1
		p := &e.pools[m]
		p.busy = make([]float64, d.ReplicaCount(m))
		p.down = make([]bool, d.ReplicaCount(m))
		p.repBatch = make([]int, d.ReplicaCount(m))
		p.held = make([]bool, d.ReplicaCount(m))
	}
	e.resetBackoff()
	return e
}

// The metric plane's bounds: Stats percentiles cover the latencyKeep most
// recent requests, and the rate windows, which only the drain and growth
// estimates read, keep their rateKeep most recent seconds.
const (
	latencyKeep = 4096
	rateKeep    = 64
)

// engineMetrics is the engine's metric plane, guarded by Engine.metMu.
type engineMetrics struct {
	// served counts completed requests, overdue those whose planned latency
	// exceeds τ, dropped the arrivals a full queue refused.
	served, overdue, dropped int
	// dispatches counts executed batch dispatches; batchSizes histograms
	// them by their actual (popped) batch size.
	dispatches int
	batchSizes map[int]int
	// reward is the cumulative Equation 7 reward.
	reward float64
	// latencies is a ring of the latencyKeep most recent planned latencies,
	// latHead its oldest slot once full.
	latencies []float64
	latHead   int
	// arrivals counts admitted requests per second at their arrival; drained
	// counts completed ones per second at their batch finish.
	arrivals, drained *metrics.WindowCounter
}

// addLatency records one request latency in the ring.
func (m *engineMetrics) addLatency(l float64) {
	if len(m.latencies) < latencyKeep {
		m.latencies = append(m.latencies, l)
		return
	}
	m.latencies[m.latHead] = l
	m.latHead = (m.latHead + 1) % latencyKeep
}

// SetPolicy swaps the scheduling policy in place. Queued requests and busy
// replicas are untouched: the next decision point simply asks the new policy,
// so a live deployment can move between greedy and RL scheduling without
// dropping work. The per-model dispatch-share history resets — a new policy
// routes the stream differently, so the old shares would mis-split the
// backlog signal. Callers serialize this with Step.
func (e *Engine) SetPolicy(p Policy) error {
	if p == nil {
		return fmt.Errorf("infer: nil policy")
	}
	e.Policy = p
	e.metMu.Lock()
	e.popped = 0
	clear(e.dispatched)
	e.metMu.Unlock()
	return nil
}

// SetTau changes the deployment's latency SLO τ (and the Algorithm 3 back-off
// floor δ = 0.1τ that hangs off it, restarting the δ controller there). It
// takes effect at the next decision point: an SLO change is a statement about
// what counts as late from now on, so later completions are judged against
// the new τ.
func (e *Engine) SetTau(tau float64) error {
	if tau <= 0 {
		return fmt.Errorf("infer: tau must be positive, got %v", tau)
	}
	e.Deployment.Tau = tau
	e.Deployment.BackoffDelta = 0.1 * tau
	e.resetBackoff()
	return nil
}

// The δ controller's steps and ceiling, in units of τ (DESIGN.md §20). A late
// batch raises δ 19 times as far as an on-time one lowers it, so δ settles
// where about one batch in twenty finishes past τ.
const (
	backoffUp   = 0.0095
	backoffDown = 0.0005
	backoffCap  = 0.4
)

// backoffState is the δ controller for one SLO. τ and the bounds are fixed
// for the state's life: SetTau installs a fresh state instead of editing
// this one, so a finalize racing an SLO change (finalize runs outside the
// dispatch lock) updates the retired state and never mixes the old τ into
// the new δ.
type backoffState struct {
	tau, floor, cap float64
	// delta holds δ as float64 bits.
	delta atomic.Uint64
}

// resetBackoff starts δ at the deployment's BackoffDelta for its current τ.
// Callers serialize this with Step (construction, or SetTau under the
// runtime's dispatch lock).
func (e *Engine) resetBackoff() {
	d := e.Deployment
	b := &backoffState{tau: d.Tau, floor: d.BackoffDelta, cap: max(d.BackoffDelta, backoffCap*d.Tau)}
	b.delta.Store(math.Float64bits(d.BackoffDelta))
	e.backoff.Store(b)
}

// backoffDelta is the live δ the greedy policies plan with.
func (e *Engine) backoffDelta() float64 {
	return math.Float64frombits(e.backoff.Load().delta.Load())
}

// observeBatchLatency feeds δ one finished batch: lat is how long its oldest
// request took on the driver's clock. Past τ, δ rises by backoffUp·τ;
// otherwise it falls by backoffDown·τ, within [BackoffDelta, backoffCap·τ].
// Safe for concurrent use: finalizes of different batches race on the CAS.
func (e *Engine) observeBatchLatency(lat float64) {
	b := e.backoff.Load()
	step := -backoffDown * b.tau
	if lat > b.tau {
		e.lateBatches.Add(1)
		step = backoffUp * b.tau
	}
	for {
		old := b.delta.Load()
		cur := math.Float64frombits(old)
		next := min(max(cur+step, b.floor), b.cap)
		if next == cur || b.delta.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// SetQueueCap rebounds the request queue (0 = unbounded). Shrinking below the
// current backlog keeps the queued requests — only new arrivals are rejected
// until the queue drains under the new cap.
func (e *Engine) SetQueueCap(n int) error {
	if n < 0 {
		return fmt.Errorf("infer: queue cap must be non-negative, got %d", n)
	}
	e.qmu.Lock()
	e.q.Cap = n
	e.qmu.Unlock()
	return nil
}

// ReplicaCounts returns the current per-model replica counts.
func (e *Engine) ReplicaCounts() []int {
	e.occMu.Lock()
	defer e.occMu.Unlock()
	out := make([]int, len(e.pools))
	for m := range e.pools {
		out[m] = len(e.pools[m].busy)
	}
	return out
}

// SetReplicas resizes model m's replica pool to n. Growing adds immediately
// free replicas; shrinking drops the highest-indexed slots (their containers
// are being torn down — batches already dispatched to them still complete,
// the slots just stop taking new work).
func (e *Engine) SetReplicas(m, n int) error {
	if m < 0 || m >= len(e.pools) {
		return fmt.Errorf("infer: model index %d out of range", m)
	}
	if n < 1 {
		return fmt.Errorf("infer: model %s needs at least one replica, got %d", e.Deployment.ModelNames[m], n)
	}
	e.occMu.Lock()
	defer e.occMu.Unlock()
	p := &e.pools[m]
	for len(p.busy) < n {
		p.busy = append(p.busy, 0)
		p.down = append(p.down, false)
		p.repBatch = append(p.repBatch, 0)
		p.held = append(p.held, false)
	}
	p.busy = p.busy[:n]
	p.down = p.down[:n]
	p.repBatch = p.repBatch[:n]
	p.held = p.held[:n]
	return nil
}

// AddReplica appends one replica slot for model m in the down state and
// returns its index. Callers bringing real capacity online register the
// container first and then mark the slot up (SetReplicaDown false), so a
// container that dies during launch always addresses a live slot index.
func (e *Engine) AddReplica(m int) (int, error) {
	if m < 0 || m >= len(e.pools) {
		return 0, fmt.Errorf("infer: model index %d out of range", m)
	}
	e.occMu.Lock()
	defer e.occMu.Unlock()
	p := &e.pools[m]
	p.busy = append(p.busy, 0)
	p.down = append(p.down, true)
	p.repBatch = append(p.repBatch, 0)
	p.held = append(p.held, false)
	return len(p.busy) - 1, nil
}

// SetReplicaDown marks replica r of model m dead (down=true: dispatch skips
// it) or recovered (down=false). The cluster manager's failure-detection and
// restart hooks drive this.
func (e *Engine) SetReplicaDown(m, r int, down bool) error {
	if m < 0 || m >= len(e.pools) {
		return fmt.Errorf("infer: model index %d out of range", m)
	}
	e.occMu.Lock()
	defer e.occMu.Unlock()
	p := &e.pools[m]
	if r < 0 || r >= len(p.busy) {
		return fmt.Errorf("infer: model %s has no replica %d", e.Deployment.ModelNames[m], r)
	}
	p.down[r] = down
	if !down {
		// A restarted container comes back idle regardless of what its
		// predecessor was doing; that pass's late release finds busy-until
		// moved and frees nothing.
		p.busy[r] = 0
		p.held[r] = false
	}
	return nil
}

// release frees replica rep of model m when the pass dispatched onto it with
// planned busy-until finish returns at time now. Busy-until becomes now,
// early or late: a decision point whose clock read predates the return
// still sees the replica busy. A slot whose busy-until no longer equals
// finish was dropped, restarted or re-dispatched since, and is left alone.
func (e *Engine) release(m, rep int, finish, now float64) {
	e.occMu.Lock()
	defer e.occMu.Unlock()
	p := &e.pools[m]
	if rep >= len(p.busy) || p.busy[rep] != finish {
		return
	}
	p.held[rep] = false
	p.busy[rep] = now
}

// observe fills v with the replica pools at time now: a model is free when
// its earliest-free live replica that no pass holds (the lowest index among
// ties) is idle by now, busy until the earliest busy-until of its live
// replicas otherwise, and all-down when no replica is live.
func (e *Engine) observe(now float64, v *modelView) {
	v.reset(len(e.pools))
	e.occMu.Lock()
	defer e.occMu.Unlock()
	for m := range e.pools {
		p := &e.pools[m]
		idx, until := -1, 0.0
		live, first := false, math.Inf(1)
		for r, u := range p.busy {
			if p.down[r] {
				continue
			}
			live, first = true, min(first, u)
			if !p.held[r] && (idx < 0 || u < until) {
				idx, until = r, u
			}
		}
		switch {
		case !live:
			v.allDown[m] = true
		case idx >= 0 && until <= now+1e-12:
			v.rep[m], v.free[m] = idx, true
			v.n++
		default:
			v.until[m] = first
		}
	}
}

// QueueLen returns the number of queued (not yet dispatched) requests. Safe
// to call concurrently.
func (e *Engine) QueueLen() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return e.q.Len()
}

// Enqueue admits a request, buffering the arrival/drop metric event for the
// next decision point. It refuses a request beyond the queue bound (counted
// as dropped) and any request once closeQueue has drained the queue. Safe
// for concurrent use.
func (e *Engine) Enqueue(r Request) bool {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	if e.closed {
		return false
	}
	if !e.q.Push(r) {
		e.events = append(e.events, arrivalEvent{dropped: true})
		return false
	}
	e.events = append(e.events, arrivalEvent{at: r.Arrival})
	return true
}

// closeQueue drains the queue and closes it: it pops every queued request,
// and every later Enqueue refuses. Safe for concurrent use.
func (e *Engine) closeQueue() []Request {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	e.closed = true
	return e.q.PopN(e.q.Len())
}

// flushArrivals folds buffered enqueue events into the metrics. Safe for
// concurrent use: the buffer drains under the queue lock and the fold happens
// under metMu; the counters are commutative, so interleaved flushes land
// identically.
func (e *Engine) flushArrivals() {
	e.qmu.Lock()
	events := e.events
	if len(events) == 0 {
		e.qmu.Unlock()
		return
	}
	e.events, e.spare = e.spare[:0], nil
	e.qmu.Unlock()
	e.metMu.Lock()
	for _, ev := range events {
		if ev.dropped {
			e.met.dropped++
		} else {
			e.met.arrivals.Add(ev.at, 1)
		}
	}
	e.metMu.Unlock()
	// Two flushes may race (a metric read and a decision point); each hands
	// its drained buffer back, and the loser's is simply dropped.
	e.qmu.Lock()
	e.spare = events[:0]
	e.qmu.Unlock()
}

// Step runs one decision point at time now and returns the executed
// dispatches: it invokes the policy until it waits, the queue empties, or no
// model is free. The driver must call Step again whenever a model frees up
// (see DispatchOutcome).
func (e *Engine) Step(now float64) ([]DispatchOutcome, error) {
	e.flushArrivals()
	e.until = 0
	var outs []DispatchOutcome
	for {
		if len(outs) > 64 {
			return outs, fmt.Errorf("infer: policy %s dispatched %d times in one decision point", e.Policy.Name(), len(outs))
		}
		if e.QueueLen() == 0 {
			return outs, nil
		}
		v := &e.view
		e.observe(now, v)
		if v.n == 0 {
			return outs, nil
		}
		st := e.stateAt(now, v, &e.st)
		e.decisions.Add(1)
		act := e.Policy.Decide(st)
		if act.Wait {
			e.until = act.Until
			e.Policy.Feedback(0)
			return outs, nil
		}
		out, err := e.dispatch(now, act, v)
		if err != nil {
			return outs, err
		}
		e.Policy.Feedback(out.Reward)
		outs = append(outs, out)
	}
}

// stateAt builds the policy's decision state at time now into st (reusing
// st's Waits/BusyLeft buffers, so the decision scratch costs no steady-state
// allocations): the queue view (depth and head waits) is the FIFO's, the
// model view is v's.
func (e *Engine) stateAt(now float64, v *modelView, st *State) *State {
	d := e.Deployment
	e.qmu.Lock()
	queueLen := e.q.Len()
	waits := e.q.WaitsAppend(now, 16, st.Waits[:0])
	e.qmu.Unlock()
	if cap(st.BusyLeft) < len(d.Profiles) {
		st.BusyLeft = make([]float64, len(d.Profiles))
	}
	*st = State{
		Now:          now,
		QueueLen:     queueLen,
		Waits:        waits,
		FreeModels:   v.free,
		BusyLeft:     st.BusyLeft[:len(d.Profiles)],
		Tau:          d.Tau,
		Delta:        e.backoffDelta(),
		Batches:      d.Batches,
		LatencyTable: e.latencyTable(),
	}
	for m := range st.BusyLeft {
		switch {
		case v.free[m]:
			st.BusyLeft[m] = 0
		case v.allDown[m]:
			// Every replica is down: the model cannot serve until the
			// cluster manager restarts a container.
			st.BusyLeft[m] = math.Inf(1)
		default:
			st.BusyLeft[m] = max(v.until[m]-now, 0)
		}
	}
	return st
}

// dispatch validates and executes an action at time now against the queue,
// occupying each chosen model's free replica in v and returning the outcome
// with the Equation 7 reward:
// a(M[v]) · (b − β·|overdue in batch|), normalized by the maximum batch size
// so rewards stay O(1).
func (e *Engine) dispatch(now float64, act Action, v *modelView) (DispatchOutcome, error) {
	d := e.Deployment
	if len(act.Models) == 0 {
		return DispatchOutcome{}, fmt.Errorf("infer: dispatch with empty model subset")
	}
	if !slices.Contains(d.Batches, act.Batch) {
		return DispatchOutcome{}, fmt.Errorf("infer: batch %d not a candidate of %v", act.Batch, d.Batches)
	}
	// Models and Replicas share one allocation: both escape into the outcome
	// the driver holds until the batch completes.
	nm := len(act.Models)
	mr := make([]int, 2*nm)
	models := mr[:nm:nm]
	replicas := mr[nm:]
	copy(models, act.Models)
	names := make([]string, nm)
	for i, mi := range act.Models {
		if mi < 0 || mi >= len(d.Profiles) {
			return DispatchOutcome{}, fmt.Errorf("infer: model index %d out of range", mi)
		}
		if v.rep[mi] < 0 {
			if v.allDown[mi] {
				return DispatchOutcome{}, fmt.Errorf("infer: model %s has no live replica", d.ModelNames[mi])
			}
			return DispatchOutcome{}, fmt.Errorf("infer: model %s is busy until %v", d.ModelNames[mi], v.until[mi])
		}
		names[i] = d.ModelNames[mi]
		replicas[i] = v.rep[mi]
	}
	// Equation 7's accuracy term comes from the surrogate table (internally
	// locked), resolved before the batch pops — an accuracy error then
	// leaves the queue intact. The bitmask cache short-circuits the steady
	// state: after the first dispatch of a subset, later ones hit a plain
	// map keyed by the model index set.
	var mask uint64
	maskable := len(d.Profiles) <= 64
	if maskable {
		for _, mi := range act.Models {
			mask |= 1 << uint(mi)
		}
	}
	acc, ok := 0.0, false
	if maskable {
		acc, ok = e.accByMask[mask]
	}
	if !ok {
		var err error
		acc, err = e.AccTable.Accuracy(names)
		if err != nil {
			return DispatchOutcome{}, err
		}
		if maskable {
			e.accByMask[mask] = acc
		}
	}

	// The batch escapes into the outcome the driver holds until the batch
	// finishes, so unlike the decision scratch it cannot be pooled.
	batch := make([]Request, 0, act.Batch)
	e.qmu.Lock()
	batch = e.q.PopAppend(min(act.Batch, e.q.Len()), batch)
	e.qmu.Unlock()
	n := len(batch)
	if n == 0 {
		return DispatchOutcome{}, fmt.Errorf("infer: dispatch on empty queue")
	}

	out := DispatchOutcome{
		Requests:    batch,
		Models:      models,
		ModelNames:  names,
		Replicas:    replicas,
		Decided:     now,
		ModelFinish: make([]float64, nm),
		Finish:      now,
	}
	// Occupy the chosen replica of each selected model; the ensemble
	// completes with the slowest.
	for i, mi := range act.Models {
		f := now + e.modelLatency(mi, n)
		out.ModelFinish[i] = f
		if f > out.Finish {
			out.Finish = f
		}
	}
	e.occMu.Lock()
	for i, mi := range act.Models {
		p := &e.pools[mi]
		p.busy[replicas[i]] = out.ModelFinish[i]
		p.repBatch[replicas[i]] = n
		p.held[replicas[i]] = true
	}
	e.occMu.Unlock()

	// The reward needs no metric state: compute it before taking metMu.
	rewardAcc := acc
	if d.AccuracyEmphasis > 1 {
		pivot := 0.0
		for _, p := range d.Profiles {
			pivot += p.Top1Accuracy
		}
		pivot /= float64(len(d.Profiles))
		rewardAcc = pivot + d.AccuracyEmphasis*(acc-pivot)
	}
	e.metMu.Lock()
	defer e.metMu.Unlock()
	m := &e.met
	e.popped += uint64(n)
	for _, mi := range act.Models {
		e.dispatched[mi] += uint64(n)
	}
	// Exponentially decay the share counters so Backlogs tracks the recent
	// stream, not lifetime history: halving preserves the ratios while a
	// workload shift washes out within a few half-lives.
	if e.popped >= shareHalfLife {
		e.popped >>= 1
		for mi := range e.dispatched {
			e.dispatched[mi] >>= 1
		}
	}
	m.drained.Add(out.Finish, float64(n))
	overdue := 0
	for _, r := range batch {
		lat := out.Finish - r.Arrival
		m.addLatency(lat)
		if lat > d.Tau {
			overdue++
		}
	}
	m.served += n
	m.overdue += overdue

	out.Reward = rewardAcc * (float64(n) - d.Beta*float64(overdue)) / float64(d.MaxBatch())
	m.reward += out.Reward
	m.dispatches++
	m.batchSizes[n]++
	return out, nil
}

// shareHalfLife bounds the dispatch-share history feeding Backlogs: once
// this many requests have been counted, every counter halves.
const shareHalfLife = 1 << 14

// MetricSnapshot is a consistent copy of the engine's reward/metric plane,
// safe to read while decision points keep dispatching.
type MetricSnapshot struct {
	Served, Overdue, Dropped int
	Decisions, Dispatches    int
	Reward                   float64
	BatchSizes               map[int]int
	BatchSizeMean            float64
	Latencies                []float64
	DrainRate, ArrivalRate   float64
}

// SnapshotMetrics copies the metric plane, with the drain and arrival rates
// computed over the trailing window (timeline seconds) ending at now. Safe
// to call concurrently with decision points.
func (e *Engine) SnapshotMetrics(now, window float64) MetricSnapshot {
	e.flushArrivals()
	e.metMu.Lock()
	defer e.metMu.Unlock()
	m := &e.met
	since := now - window
	// Every dispatch adds its batch to served and one count to its
	// histogram bin, so the histogram's mean is served per dispatch.
	mean := 0.0
	if m.dispatches > 0 {
		mean = float64(m.served) / float64(m.dispatches)
	}
	return MetricSnapshot{
		Served:        m.served,
		Overdue:       m.overdue,
		Dropped:       m.dropped,
		Decisions:     int(e.decisions.Load()),
		Dispatches:    m.dispatches,
		Reward:        m.reward,
		BatchSizes:    maps.Clone(m.batchSizes),
		BatchSizeMean: mean,
		Latencies:     slices.Clone(m.latencies),
		DrainRate:     m.drained.TotalSince(since) / window,
		ArrivalRate:   m.arrivals.TotalSince(since) / window,
	}
}

// DrainRate reports the recent completion rate (requests per timeline second
// over the trailing window) without a full metric snapshot — the rejection
// path reads it once per queue-full request. Safe to call concurrently.
func (e *Engine) DrainRate(now, window float64) float64 {
	e.metMu.Lock()
	defer e.metMu.Unlock()
	return e.met.drained.TotalSince(now-window) / window
}

// Rates reports the recent arrival and drain rates (requests per timeline
// second over the trailing window). Safe to call concurrently.
func (e *Engine) Rates(now, window float64) (arrival, drain float64) {
	e.flushArrivals()
	since := now - window
	e.metMu.Lock()
	defer e.metMu.Unlock()
	return e.met.arrivals.TotalSince(since) / window, e.met.drained.TotalSince(since) / window
}

// Backlogs reports each model's demand signal at time now: its estimated
// share of the queued backlog (by recent, exponentially decayed dispatch
// participation) plus the requests already in flight on its replicas — busy
// by the plan, or held by a pass that has not returned. Safe to call
// concurrently with decision points.
func (e *Engine) Backlogs(now float64) []ModelBacklog {
	queued := float64(e.QueueLen())
	out := make([]ModelBacklog, len(e.pools))
	e.metMu.Lock()
	for m := range out {
		share := 1.0
		if e.popped > 0 {
			share = float64(e.dispatched[m]) / float64(e.popped)
		}
		out[m].Queued = share * queued
	}
	e.metMu.Unlock()
	e.occMu.Lock()
	defer e.occMu.Unlock()
	for m := range out {
		p := &e.pools[m]
		for r, until := range p.busy {
			if until > now+1e-12 || p.held[r] {
				out[m].Inflight += p.repBatch[r]
			}
		}
	}
	return out
}

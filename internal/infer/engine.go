package infer

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"rafiki/internal/metrics"
)

// This file is the runtime's clock-agnostic decision core: the FIFO request
// queue, replica occupancy, policy invocation with Equation 7 reward
// accounting, and the metric plane. None of it reads a clock — a request
// carries its arrival, a decision point takes the current time, and
// completion times come back as data — so the same code serves on the wall
// clock and, for the paper's figures, on a virtual-time event loop
// (DESIGN.md §6, §10).

// arrivalEvent buffers one enqueue's metric side effects. Arrivals happen off
// the decision loop (concurrent Submits take only the queue lock), so enqueue
// records the event and the next decision point or metric read folds it into
// the metrics. at is the request's arrival.
type arrivalEvent struct {
	at      float64
	dropped bool
}

// replica is one model replica's occupancy: its busy-until time, its down
// flag, the size of the batch it is running, and whether a dispatched pass
// still holds it (held: it stays busy past its planned busy-until until
// release frees it). Guarded by Runtime.occMu.
type replica struct {
	busy       float64
	down, held bool
	batch      int
}

// subset is one model subset's immutable dispatch record, keyed by the
// subset's bitmask: its surrogate accuracy a(M[v]) and its model names in
// ascending index order. Runs share names with the futures they resolve, so
// Future.Models may read them after the run is recycled.
type subset struct {
	acc   float64
	names []string
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

// The metric plane's bounds: Stats percentiles cover the latencyKeep most
// recent requests, and the rate windows, which only the drain and growth
// estimates read, keep their rateKeep most recent seconds.
const (
	latencyKeep = 4096
	rateKeep    = 64
)

// metricPlane is the runtime's metric plane, guarded by Runtime.metMu.
type metricPlane struct {
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
func (m *metricPlane) addLatency(l float64) {
	if len(m.latencies) < latencyKeep {
		m.latencies = append(m.latencies, l)
		return
	}
	m.latencies[m.latHead] = l
	m.latHead = (m.latHead + 1) % latencyKeep
}

// rates reports the recent arrival and drain rates: requests per timeline
// second over the drainWindow ending at now.
func (m *metricPlane) rates(now float64) (arrival, drain float64) {
	since := now - drainWindow
	return m.arrivals.TotalSince(since) / drainWindow, m.drained.TotalSince(since) / drainWindow
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
// for the state's life: SetSLO installs a fresh state instead of editing
// this one, so a finalize racing an SLO change (finalize runs outside the
// dispatch lock) updates the retired state and never mixes the old τ into
// the new δ.
type backoffState struct {
	tau, floor, cap float64
	// delta holds δ as float64 bits.
	delta atomic.Uint64
}

// resetBackoff starts δ at the deployment's BackoffDelta for its current τ.
// Callers hold the dispatch lock, or are constructing the runtime.
func (r *Runtime) resetBackoff() {
	d := r.d
	b := &backoffState{tau: d.Tau, floor: d.BackoffDelta, cap: max(d.BackoffDelta, backoffCap*d.Tau)}
	b.delta.Store(math.Float64bits(d.BackoffDelta))
	r.backoff.Store(b)
}

// backoffDelta is the live δ the greedy policies plan with.
func (r *Runtime) backoffDelta() float64 {
	return math.Float64frombits(r.backoff.Load().delta.Load())
}

// observeBatchLatency feeds δ one finished batch: lat is how long its oldest
// request took on the runtime's clock. Past τ, δ rises by backoffUp·τ;
// otherwise it falls by backoffDown·τ, within [BackoffDelta, backoffCap·τ].
// Safe for concurrent use: finalizes of different batches race on the CAS.
func (r *Runtime) observeBatchLatency(lat float64) {
	b := r.backoff.Load()
	step := -backoffDown * b.tau
	if lat > b.tau {
		r.lateBatches.Add(1)
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

// release frees replica rep of model m when the pass dispatched onto it with
// planned busy-until finish returns at time now. Busy-until becomes now,
// early or late: a decision point whose clock read predates the return
// still sees the replica busy. A slot whose busy-until no longer equals
// finish was dropped, restarted or re-dispatched since, and is left alone.
func (r *Runtime) release(m, rep int, finish, now float64) {
	r.occMu.Lock()
	defer r.occMu.Unlock()
	p := r.pools[m]
	if rep >= len(p) || p[rep].busy != finish {
		return
	}
	p[rep].held, p[rep].busy = false, now
}

// observe fills v with the replica pools at time now: a model is free when
// its earliest-free live replica that no pass holds (the lowest index among
// ties) is idle by now, busy until the earliest busy-until of its live
// replicas otherwise, and all-down when no replica is live.
func (r *Runtime) observe(now float64, v *modelView) {
	v.reset(len(r.pools))
	r.occMu.Lock()
	defer r.occMu.Unlock()
	for m, p := range r.pools {
		idx, until := -1, 0.0
		live, first := false, math.Inf(1)
		for i := range p {
			x := &p[i]
			if x.down {
				continue
			}
			live, first = true, min(first, x.busy)
			if !x.held && (idx < 0 || x.busy < until) {
				idx, until = i, x.busy
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

// queueLen returns the number of queued (not yet dispatched) requests.
func (r *Runtime) queueLen() int {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	return r.q.Len()
}

// enqueue admits a request, buffering the arrival/drop metric event for the
// next decision point. It refuses a request beyond the queue bound (counted
// as dropped) and any request once failAll has drained the queue.
func (r *Runtime) enqueue(req Request) bool {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	if r.qclosed {
		return false
	}
	if !r.q.Push(req) {
		r.events = append(r.events, arrivalEvent{dropped: true})
		return false
	}
	r.events = append(r.events, arrivalEvent{at: req.Arrival})
	return true
}

// flushArrivals folds buffered enqueue events into the metrics: the buffer
// drains under the queue lock and the fold happens under metMu; the counters
// are commutative, so interleaved flushes land identically.
func (r *Runtime) flushArrivals() {
	r.qmu.Lock()
	events := r.events
	if len(events) == 0 {
		r.qmu.Unlock()
		return
	}
	r.events, r.spare = r.spare[:0], nil
	r.qmu.Unlock()
	r.metMu.Lock()
	for _, ev := range events {
		if ev.dropped {
			r.met.dropped++
		} else {
			r.met.arrivals.Add(ev.at, 1)
		}
	}
	r.metMu.Unlock()
	// Two flushes may race (a metric read and a decision point); each hands
	// its drained buffer back, and the loser's is simply dropped.
	r.qmu.Lock()
	r.spare = events[:0]
	r.qmu.Unlock()
}

// decide runs one decision point at time now and returns the dispatched
// runs without launching them: it invokes the policy until it waits, the
// queue empties, or no model is free. A decision point must run again
// whenever a model frees up. The returned slice is decision scratch, valid
// until the next decide. Called with the dispatch lock held.
func (r *Runtime) decide(now float64) ([]*batchRun, error) {
	r.flushArrivals()
	r.until = 0
	r.runs = r.runs[:0]
	for {
		if len(r.runs) > 64 {
			return r.runs, fmt.Errorf("infer: policy %s dispatched %d times in one decision point", r.policy.Name(), len(r.runs))
		}
		if r.queueLen() == 0 {
			return r.runs, nil
		}
		v := &r.view
		r.observe(now, v)
		if v.n == 0 {
			return r.runs, nil
		}
		st := r.stateAt(now, v, &r.st)
		r.decisions.Add(1)
		act := r.policy.Decide(st)
		if act.Wait {
			r.until = act.Until
			r.policy.Feedback(0)
			return r.runs, nil
		}
		br, err := r.dispatch(now, act, v)
		if err != nil {
			return r.runs, err
		}
		r.policy.Feedback(br.reward)
		r.runs = append(r.runs, br)
	}
}

// stateAt builds the policy's decision state at time now into st (reusing
// st's Waits/BusyLeft buffers, so the decision scratch costs no steady-state
// allocations): the queue view (depth and head waits) is the FIFO's, the
// model view is v's.
func (r *Runtime) stateAt(now float64, v *modelView, st *State) *State {
	d := r.d
	r.qmu.Lock()
	queueLen := r.q.Len()
	waits := r.q.WaitsAppend(now, 16, st.Waits[:0])
	r.qmu.Unlock()
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
		Delta:        r.backoffDelta(),
		Batches:      d.Batches,
		LatencyTable: r.latencyTable(),
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

// dispatch validates and executes an action at time now against the queue:
// it fills a pooled run with the popped batch and one pass per chosen model,
// in ascending model order, occupying each model's free replica in v, and
// records the action's Equation 7 reward on the run:
// a(M[v]) · (b − β·|overdue in batch|), normalized by the maximum batch size
// so rewards stay O(1).
func (r *Runtime) dispatch(now float64, act Action, v *modelView) (*batchRun, error) {
	d := r.d
	if len(act.Models) == 0 {
		return nil, fmt.Errorf("infer: dispatch with empty model subset")
	}
	if !slices.Contains(d.Batches, act.Batch) {
		return nil, fmt.Errorf("infer: batch %d not a candidate of %v", act.Batch, d.Batches)
	}
	// The subset's bitmask (NewDeployment allows at most 64 models) catches a
	// repeated model and keys the subset's record.
	var mask uint64
	for _, mi := range act.Models {
		if mi < 0 || mi >= len(d.Profiles) {
			return nil, fmt.Errorf("infer: model index %d out of range", mi)
		}
		if mask&(1<<mi) != 0 {
			return nil, fmt.Errorf("infer: model %s selected twice", d.ModelNames[mi])
		}
		mask |= 1 << mi
		if v.rep[mi] < 0 {
			if v.allDown[mi] {
				return nil, fmt.Errorf("infer: model %s has no live replica", d.ModelNames[mi])
			}
			return nil, fmt.Errorf("infer: model %s is busy until %v", d.ModelNames[mi], v.until[mi])
		}
	}
	// Equation 7's accuracy term comes from the surrogate table (internally
	// locked) on a subset's first dispatch, resolved before the batch pops,
	// so an accuracy error leaves the queue intact.
	sub, ok := r.subsets[mask]
	if !ok {
		for m := mask; m != 0; m &= m - 1 {
			sub.names = append(sub.names, d.ModelNames[bits.TrailingZeros64(m)])
		}
		var err error
		if sub.acc, err = r.acc.Accuracy(sub.names); err != nil {
			return nil, err
		}
		r.subsets[mask] = sub
	}

	br := batchRunPool.Get().(*batchRun)
	br.reqs = slices.Grow(br.reqs[:0], act.Batch)
	r.qmu.Lock()
	br.reqs = r.q.PopAppend(min(act.Batch, r.q.Len()), br.reqs)
	r.qmu.Unlock()
	n := len(br.reqs)
	if n == 0 {
		br.release()
		return nil, fmt.Errorf("infer: dispatch on empty queue")
	}
	br.grab(n, len(sub.names))
	for i, req := range br.reqs {
		br.ids[i], br.payloads[i] = req.ID, req.slot.payload
	}
	br.names, br.decided, br.finish = sub.names, now, now
	// Occupy the chosen replica of each selected model; the ensemble
	// completes with the slowest.
	for m := mask; m != 0; m &= m - 1 {
		mi := bits.TrailingZeros64(m)
		f := now + r.modelLatency(mi, n)
		br.passes = append(br.passes, pass{model: mi, rep: v.rep[mi], finish: f})
		br.finish = max(br.finish, f)
	}
	r.occMu.Lock()
	for _, p := range br.passes {
		x := &r.pools[p.model][p.rep]
		x.busy, x.batch, x.held = p.finish, n, true
	}
	r.occMu.Unlock()

	// The reward needs no metric state: compute it before taking metMu.
	rewardAcc := sub.acc
	if d.AccuracyEmphasis > 1 {
		pivot := 0.0
		for _, p := range d.Profiles {
			pivot += p.Top1Accuracy
		}
		pivot /= float64(len(d.Profiles))
		rewardAcc = pivot + d.AccuracyEmphasis*(sub.acc-pivot)
	}
	r.metMu.Lock()
	defer r.metMu.Unlock()
	m := &r.met
	r.popped += uint64(n)
	for _, p := range br.passes {
		r.dispatched[p.model] += uint64(n)
	}
	// Exponentially decay the share counters so backlogs tracks the recent
	// stream, not lifetime history: halving preserves the ratios while a
	// workload shift washes out within a few half-lives.
	if r.popped >= shareHalfLife {
		r.popped >>= 1
		for mi := range r.dispatched {
			r.dispatched[mi] >>= 1
		}
	}
	m.drained.Add(br.finish, float64(n))
	overdue := 0
	for _, req := range br.reqs {
		lat := br.finish - req.Arrival
		m.addLatency(lat)
		if lat > d.Tau {
			overdue++
		}
	}
	m.served += n
	m.overdue += overdue

	br.reward = rewardAcc * (float64(n) - d.Beta*float64(overdue)) / float64(d.MaxBatch())
	m.reward += br.reward
	m.dispatches++
	m.batchSizes[n]++
	return br, nil
}

// shareHalfLife bounds the dispatch-share history feeding backlogs: once
// this many requests have been counted, every counter halves.
const shareHalfLife = 1 << 14

// backlogs reports each model's demand signal at time now for a queue of
// queued requests: its estimated share of the backlog (by recent,
// exponentially decayed dispatch participation) plus the requests already
// in flight on its replicas — busy by the plan, or held by a pass that has
// not returned.
func (r *Runtime) backlogs(now float64, queued int) []ModelBacklog {
	out := make([]ModelBacklog, len(r.pools))
	r.metMu.Lock()
	for m := range out {
		share := 1.0
		if r.popped > 0 {
			share = float64(r.dispatched[m]) / float64(r.popped)
		}
		out[m].Queued = share * float64(queued)
	}
	r.metMu.Unlock()
	r.occMu.Lock()
	defer r.occMu.Unlock()
	for m, p := range r.pools {
		for _, x := range p {
			if x.busy > now+1e-12 || x.held {
				out[m].Inflight += x.batch
			}
		}
	}
	return out
}

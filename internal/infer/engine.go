package infer

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"rafiki/internal/ensemble"
	"rafiki/internal/metrics"
	"rafiki/internal/zoo"
)

// falseSharePad is the alignment quantum of the concurrently-written
// per-group and per-model structs: two 64-byte cache lines, so the adjacent
// cache-line prefetcher cannot couple neighbouring slots either. Each padded
// struct rounds its size up to a multiple of this, which keeps hot
// slot-local writes from invalidating a sibling plane's line.
const falseSharePad = 128

// DispatchOutcome records one executed dispatch decision: which requests
// went to which models and when the work completes. The driver owning the
// clock is responsible for scheduling a new decision point (Engine.Step) at
// every ModelFinish time, and for delivering results at Finish.
type DispatchOutcome struct {
	// Requests is the dispatched batch, oldest first. Under work-stealing
	// the head comes from the drained shard and the tail from its sibling
	// shards (each contributing its own oldest requests first).
	Requests []Request
	// Models are the serving model indices; ModelNames the matching names.
	Models     []int
	ModelNames []string
	// Replicas[i] is the replica slot of Models[i] that serves the batch.
	Replicas []int
	// Batch is the chosen candidate batch size (≥ len(Requests)).
	Batch int
	// Stolen counts batch requests taken from sibling shards by
	// work-stealing assembly (0 without stealing).
	Stolen int
	// Group is the dispatch group that executed the decision.
	Group int
	// Decided is the decision time; ModelFinish[i] is when Models[i] frees
	// up; Finish is the ensemble completion (the slowest selected model).
	// ModelLatency[i] is the planned service latency of Models[i] for this
	// batch size (ModelFinish[i] - Decided, but exact: the backend layer
	// echoes it as the simulated observation, and the latency EWMA must see
	// the table value bit-for-bit, not a float round trip through addition).
	Decided      float64
	ModelFinish  []float64
	ModelLatency []float64
	Finish       float64
	// Overdue counts batch requests whose latency exceeds τ.
	Overdue int
	// Reward is the action's Equation 7 reward.
	Reward float64
}

// arrivalEvent buffers one Enqueue's metric side effects. Arrivals happen off
// the driver lock (concurrent Submits touch only their shard), so the shard
// records the event and the next decision point folds it into the canonical
// metrics in a driver-serialized context.
type arrivalEvent struct {
	// now is the enqueue time (gates MeasureFrom); at the request arrival.
	now, at float64
	dropped bool
}

// engineShard is one stripe of the queue layer: a FIFO plus the lock that
// makes it safe against concurrent enqueues, and the arrival-metric buffer.
// spare is the buffer the last flush drained: the next flush swaps it in, so
// two buffers alternate and Enqueue's append stops allocating.
type engineShard struct {
	mu     sync.Mutex
	q      *Queue
	events []arrivalEvent
	spare  []arrivalEvent
}

// engineGroup is one dispatch plane: the subset of queue shards it drains
// (shard s belongs to group s mod ngroups), its round-robin cursor, and its
// policy instance. Groups are drained by independent decision loops — the
// drivers serialize decision points per group, not globally — so a group's
// fields are only touched by its own loop (or by reconfiguration, which
// excludes all loops via the topology lock / the runtime's control lock).
type engineGroup struct {
	// shards are the absolute indices of the queue shards this group owns.
	shards []int
	// rr is the group's round-robin drain cursor (an index into shards).
	rr int
	// pol is the group's policy instance. With one group it is exactly
	// Engine.Policy; with several it is a per-group clone when the policy
	// implements GroupedPolicy, else the shared Engine.Policy.
	pol Policy
	// shared marks pol as shared across groups: Decide→Feedback spans then
	// serialize on the engine's policy lock so reward pairing stays intact.
	shared bool
	// lease and st are the loop's decision scratch, reused across iterations:
	// the claimed lease view and the policy state (with its Waits/BusyLeft
	// buffers) live only for one Decide, so per-group reuse is safe under the
	// same exclusion that protects rr. Policies must not retain *State or its
	// slices across calls (the online RL adapter copies what it rewrites).
	lease leaseSet
	st    State
}

// metricSlotState is one dispatch group's private accumulator of the
// reward/metric plane (DESIGN.md §15): every counter, rate window, latency
// sample, batch histogram and dispatch-share counter the group's decision
// loop produces lands here, under the slot's own lock — which only the
// owning loop and metric readers ever touch, so sibling planes never
// serialize (or ping-pong cache lines) on a shared metric mutex. Reads fold
// the slots into one consistent global view (foldMetrics): all counters are
// commutative sums, so the fold is exact, and with a single group the fold
// reproduces the classic shared-plane numbers bit-for-bit.
type metricSlotState struct {
	mu sync.Mutex
	// served/overdue/dropped/dispatches/stolen mirror Metrics' counters for
	// this group's dispatches; reward is the group's Eq. 7 partial sum.
	served, overdue, dropped int
	dispatches, stolen       int
	reward                   float64
	// batchSizes histograms this group's executed dispatch sizes.
	batchSizes map[int]int
	// latencies is the group's per-request latency window (ring once
	// latencyCap samples are held, like Metrics.Latencies).
	latencies  []float64
	latHead    int
	latencyCap int
	// servedRate/overdueRate/arrivalRate are the group's rate windows;
	// arrival events land in the slot of the group owning the shard.
	servedRate  *metrics.WindowCounter
	overdueRate *metrics.WindowCounter
	arrivalRate *metrics.WindowCounter
	// accuracy buffers the group's measured-accuracy samples, clamped
	// monotone by the slot's own maxAccT; the fold merge-sorts slots.
	accuracy *metrics.TimeSeries
	maxAccT  float64
	// dispatched[m]/popped are the group's dispatch-share counters feeding
	// Backlogs (decayed per slot at the shared half-life).
	dispatched []uint64
	popped     uint64
}

// metricSlot pads the slot state so adjacent groups' slots never share a
// cache line (the whole point of sharding the metric plane).
type metricSlot struct {
	metricSlotState
	_ [(falseSharePad - unsafe.Sizeof(metricSlotState{})%falseSharePad) % falseSharePad]byte
}

// replicaPoolState is one model's replica pool: the busy-until, down, leased
// and in-flight-batch state of every replica, guarded by a per-model lock so
// dispatch planes leasing different models never contend (leases already
// claim and commit per model). hint is the pool's earliest-free signal — the
// minimum busy-until over live replicas, as float64 bits (+Inf = no live
// replica) — refreshed under the lock at every busy/topology mutation, so
// claim can skip both the lock and the O(replicas) scan whenever the model
// cannot possibly have a free replica.
type replicaPoolState struct {
	mu       sync.Mutex
	busy     []float64
	down     []bool
	leased   []bool
	repBatch []int
	hint     atomic.Uint64
}

// refreshHint recomputes the earliest-free hint. Callers hold the pool lock.
func (p *replicaPoolState) refreshHint() {
	min, live := 0.0, false
	for r, u := range p.busy {
		if p.down[r] {
			continue
		}
		if !live || u < min {
			min, live = u, true
		}
	}
	if !live {
		min = math.Inf(1)
	}
	p.hint.Store(math.Float64bits(min))
}

// replicaPool pads the pool state onto its own cache lines: per-model leases
// from different planes must not false-share.
type replicaPool struct {
	replicaPoolState
	_ [(falseSharePad - unsafe.Sizeof(replicaPoolState{})%falseSharePad) % falseSharePad]byte
}

// ModelBacklog is one model's demand signal, derived from the sharded queue
// layer's counters: how much queued work the model is expected to absorb and
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

// leaseSet is one dispatch group's claim on the shared replica pools: the
// short per-model critical sections mark the earliest-free free replica of
// each model as leased, and the group plans (policy decision) and launches
// its batch outside the locks. Leases are either committed at dispatch (the
// replica's busy-until advances to the batch finish — it returns to the pool
// when that time passes) or released untouched on a wait.
type leaseSet struct {
	// rep[m] is the leased replica of model m, -1 when none was free.
	rep []int
	// free[m] mirrors rep[m] >= 0 — the policy's FreeModels view.
	free []bool
	// until[m] is the earliest busy-until among available replicas of an
	// unleased model (absolute time), used for busy-left features and the
	// "busy until" dispatch error.
	until []float64
	// allDown[m] marks a model with no live replica at all.
	allDown []bool
	// n counts leased models.
	n int
}

// reset sizes the lease set for nm models and clears every per-model slot,
// reusing the backing slices when they are already big enough.
func (ls *leaseSet) reset(nm int) {
	if cap(ls.rep) < nm {
		ls.rep = make([]int, nm)
		ls.free = make([]bool, nm)
		ls.until = make([]float64, nm)
		ls.allDown = make([]bool, nm)
	}
	ls.rep = ls.rep[:nm]
	ls.free = ls.free[:nm]
	ls.until = ls.until[:nm]
	ls.allDown = ls.allDown[:nm]
	for m := 0; m < nm; m++ {
		ls.rep[m], ls.free[m], ls.until[m], ls.allDown[m] = -1, false, 0, false
	}
	ls.n = 0
}

// Engine is the clock-agnostic core of the serving service: the sharded FIFO
// queue layer partitioned into dispatch groups, replica-lease occupancy
// tracking, policy invocation with Equation 7 reward accounting, and metrics.
// It never reads a clock — every entry point takes the current time as an
// argument and completion times come back to the caller as data — so the
// same engine serves the virtual-time Simulator and the wall-clock Runtime
// (DESIGN.md §6, §10).
//
// Concurrency contract: Enqueue is safe for concurrent use (requests hash to
// one queue shard and take only that shard's lock). StepGroup may run
// concurrently for *different* groups — shared state splits into per-model
// replica pools (each under its own lock, with an atomic earliest-free hint
// on the claim fast path), per-group metric slots (each plane accumulates
// into its own cache-line-padded slot; reads fold them) and the policy
// (per-group instances, or polMu when shared) — but callers
// must serialize decision points within one group. Every other mutator
// (SetShards, SetGroups, SetReplicas, SetPolicy, ...) requires the caller to
// exclude all decision loops first: the Runtime holds its control lock
// exclusively, the Simulator is single-threaded.
type Engine struct {
	Deployment *Deployment
	Policy     Policy
	// AccTable provides the surrogate ensemble accuracy a(M[v]) for rewards.
	AccTable *ensemble.AccuracyTable
	// accByMask fronts AccTable on the dispatch hot path: model subsets with
	// indices under 64 key a bitmask → accuracy cache, skipping the
	// sort+join subset-key build and table lock per dispatch. Values are the
	// table's own (deterministic) results, so the two caches never disagree.
	accByMask sync.Map
	// Predictor, when non-nil, simulates real per-request predictions for
	// measured accuracy; nil skips accuracy measurement.
	Predictor *zoo.Predictor
	// MeasureFrom discards metrics before this time (RL warm-up).
	MeasureFrom float64

	// topo guards the identity of the shard and group sets: Enqueue and
	// StepGroup hold it shared, SetShards/SetGroups exclusively.
	topo    sync.RWMutex
	shards  []engineShard
	groups  []engineGroup
	nshards atomic.Int32
	ngroups atomic.Int32
	// queued is the global backlog count; queueCap the global bound
	// (0 = unbounded). Both atomic so the admission check never takes a lock
	// beyond the target shard's.
	queued   atomic.Int64
	queueCap atomic.Int64

	// pools[m] is model m's replica pool, each under its own per-model lock
	// (the lease critical sections — claim, commit, release — already touch
	// one model at a time, so planes leasing different models never contend,
	// and the atomic earliest-free hint lets claim skip a model that cannot
	// have a free replica without taking its lock at all). The slice itself
	// is fixed at construction (the deployment's model set never changes);
	// per-pool replica slices resize under the pool lock with decision loops
	// excluded.
	pools []replicaPool

	// polMu serializes Decide→Feedback spans when the policy cannot fan out
	// per group (it does not implement GroupedPolicy): reward pairing must
	// stay intact for online learners, so concurrent groups then take turns
	// deciding while their launch planes still overlap.
	polMu sync.Mutex

	// The latency-feedback plane publishes every piece through atomic
	// snapshot pointers — the EWMA state (latFb), the applied per-model
	// scales and the rescaled planning table — so both the dispatch hot path
	// and the feedback ingest read lock-free; latMu only serializes the rare
	// copy-on-write update (a quantized scale actually moving). Nil pointers
	// mean "no feedback yet": every estimate is the profiled table value,
	// bit-for-bit. See latency.go.
	latMu      sync.Mutex
	latFb      atomic.Pointer[latFeedback]
	latScalePt atomic.Pointer[[]float64]
	latTablePt atomic.Pointer[[][]float64]
	// backoff is Algorithm 3's δ controller for the live SLO (see
	// observeBatchLatency); lateBatches counts the finalized batches it saw
	// finish past τ.
	backoff     atomic.Pointer[backoffState]
	lateBatches atomic.Uint64

	// metMu guards the retired metric base: met accumulates the slots of
	// dispatch-group layouts that no longer exist (a live re-group folds the
	// old slots in before replacing them), plus its own dispatch-share
	// remainder (baseDispatched/basePopped) and accuracy-series clock
	// (baseMaxAccT). The dispatch hot path never takes it — per-group
	// dispatches write only their own metricSlot; every read folds
	// base + slots into one consistent view (foldMetrics). Lock order:
	// metMu before any slot lock, slot locks in index order.
	metMu          sync.Mutex
	baseDispatched []uint64
	basePopped     uint64
	met            *Metrics
	baseMaxAccT    float64
	// metSlots[g] is dispatch group g's private metric accumulator; rebuilt
	// (with the old slots retired into the base) only when the group count
	// changes, with all decision loops excluded.
	metSlots []metricSlot
	// latencyCap/rateKeep are the configured metric bounds applied to every
	// slot (and the base): Latencies ring size and arrival/overdue window
	// retention. 0 = unbounded (the simulator's default; figures read full
	// histories).
	latencyCap int
	rateKeep   int

	// decisions counts policy decision points. It is the hottest counter in
	// the dispatch loop (one bump per Decide, dispatch or wait), so it lives
	// outside metMu as an atomic and folds into met.Decisions at read time
	// (Metrics / SnapshotMetrics) — concurrent planes then never serialize
	// on the metric lock just to count a decision.
	decisions atomic.Uint64
}

// NewEngine wires an engine with a single queue shard of the given global
// capacity (0 = unbounded; the paper drops arrivals beyond a full queue) and
// a single dispatch group. SetShards widens the queue layer; SetGroups
// splits dispatch across planes.
func NewEngine(d *Deployment, p Policy, acc *ensemble.AccuracyTable, queueCap int) *Engine {
	e := &Engine{
		Deployment:     d,
		Policy:         p,
		AccTable:       acc,
		shards:         []engineShard{{q: NewQueue(0)}},
		pools:          make([]replicaPool, len(d.Profiles)),
		baseDispatched: make([]uint64, len(d.Profiles)),
		met: &Metrics{
			OverdueRate: metrics.NewWindowCounter(1),
			ArrivalRate: metrics.NewWindowCounter(1),
			// Only the recent tail feeds drain-rate estimates, so bound
			// retention: a long-lived runtime must not grow one map entry
			// per second of serving forever.
			ServedRate: boundedWindowCounter(1, servedRateKeep),
			Accuracy:   metrics.NewTimeSeries("accuracy"),
		},
	}
	e.nshards.Store(1)
	e.ngroups.Store(1)
	e.queueCap.Store(int64(queueCap))
	for m := range e.pools {
		p := &e.pools[m]
		p.busy = make([]float64, d.ReplicaCount(m))
		p.down = make([]bool, d.ReplicaCount(m))
		p.leased = make([]bool, d.ReplicaCount(m))
		p.repBatch = make([]int, d.ReplicaCount(m))
		p.refreshHint()
	}
	e.resetBackoff()
	e.rebuildGroups(1)
	return e
}

// servedRateKeep bounds every served-rate window to its recent tail; only
// drain-rate estimates read it.
const servedRateKeep = 64

// newMetricSlot builds one group's metric accumulator under the engine's
// configured bounds.
func (e *Engine) newMetricSlot() metricSlotState {
	arr := metrics.NewWindowCounter(1)
	arr.Keep = e.rateKeep
	od := metrics.NewWindowCounter(1)
	od.Keep = e.rateKeep
	return metricSlotState{
		batchSizes:  map[int]int{},
		latencyCap:  e.latencyCap,
		servedRate:  boundedWindowCounter(1, servedRateKeep),
		overdueRate: od,
		arrivalRate: arr,
		accuracy:    metrics.NewTimeSeries("accuracy"),
		maxAccT:     e.baseMaxAccT,
		dispatched:  make([]uint64, len(e.Deployment.Profiles)),
	}
}

// SetMetricBounds bounds the metric plane for a long-lived runtime: every
// latency window (base and per-group slots) becomes a ring of latencyCap
// recent samples, and the arrival/overdue rate windows retain only the most
// recent rateKeep seconds. 0 keeps a bound unset (full history — the
// simulator's default, whose figures read complete series). Callers exclude
// decision loops (the Runtime configures this before serving).
func (e *Engine) SetMetricBounds(latencyCap, rateKeep int) {
	e.metMu.Lock()
	defer e.metMu.Unlock()
	e.latencyCap = latencyCap
	e.rateKeep = rateKeep
	e.met.LatencyCap = latencyCap
	e.met.ArrivalRate.Keep = rateKeep
	e.met.OverdueRate.Keep = rateKeep
	for g := range e.metSlots {
		sl := &e.metSlots[g].metricSlotState
		sl.mu.Lock()
		sl.latencyCap = latencyCap
		sl.arrivalRate.Keep = rateKeep
		sl.overdueRate.Keep = rateKeep
		sl.mu.Unlock()
	}
}

// maxEngineShards bounds SetShards against runaway configurations: shards
// beyond it buy no parallelism and only fragment batches.
const maxEngineShards = 256

// maxEngineGroups bounds SetGroups: groups beyond the machine's core count
// buy no drain parallelism, and the Runtime pre-allocates one plane per
// possible group.
const maxEngineGroups = 64

// mix64 is the splitmix64 finalizer: request IDs are sequential, so shard
// routing runs them through a full-avalanche mix before reducing.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardCount returns the live shard count. Safe to call concurrently.
func (e *Engine) ShardCount() int { return int(e.nshards.Load()) }

// GroupCount returns the live dispatch-group count. Safe to call
// concurrently.
func (e *Engine) GroupCount() int { return int(e.ngroups.Load()) }

// shardFor maps a request ID onto a shard index for the given shard count.
func shardFor(id uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(mix64(id) % uint64(n))
}

// GroupOf maps a request ID onto the dispatch group that drains its shard.
// Safe to call concurrently (drivers use it to wake the right drain plane).
func (e *Engine) GroupOf(id uint64) int {
	return shardFor(id, e.ShardCount()) % e.GroupCount()
}

// rebuildGroups repartitions the shards across n dispatch groups (shard s
// goes to group s mod n) and rebuilds the per-group policy instances.
// Callers hold topo exclusively or otherwise exclude all decision loops.
func (e *Engine) rebuildGroups(n int) {
	e.groups = make([]engineGroup, n)
	for s := range e.shards {
		g := s % n
		e.groups[g].shards = append(e.groups[g].shards, s)
	}
	e.ngroups.Store(int32(n))
	e.rebindPolicies()
	e.metMu.Lock()
	// Only a real re-group replaces the per-plane metric slots (retiring the
	// old ones into the base): a re-shard with an unchanged group count keeps
	// every shard on its old plane index, so the per-slot history still
	// describes the live planes.
	if len(e.metSlots) != n {
		e.retireSlotsLocked()
		e.metSlots = make([]metricSlot, n)
		for g := range e.metSlots {
			e.metSlots[g].metricSlotState = e.newMetricSlot()
		}
	}
	e.metMu.Unlock()
}

// retireSlotsLocked folds every live metric slot into the retired base (met,
// baseDispatched/basePopped, baseMaxAccT) before the slot set is replaced.
// Callers hold metMu and exclude all decision loops. Per-group dispatch
// counts are intentionally dropped (GroupDispatches describes the *live*
// plane layout, matching the classic reset-on-regroup semantics); every
// global counter survives.
func (e *Engine) retireSlotsLocked() {
	if len(e.metSlots) == 0 {
		return
	}
	pts := e.met.Accuracy.Points()
	merged := len(pts) > 0
	for g := range e.metSlots {
		sl := &e.metSlots[g].metricSlotState
		sl.mu.Lock()
		e.met.Served += sl.served
		e.met.Overdue += sl.overdue
		e.met.Dropped += sl.dropped
		e.met.Dispatches += sl.dispatches
		e.met.Stolen += sl.stolen
		e.met.Reward += sl.reward
		if len(sl.batchSizes) > 0 && e.met.BatchSizes == nil {
			e.met.BatchSizes = make(map[int]int)
		}
		for b, c := range sl.batchSizes {
			e.met.BatchSizes[b] += c
		}
		for _, lat := range sl.latenciesInOrder() {
			e.met.addLatency(lat)
		}
		e.met.ServedRate.Merge(sl.servedRate)
		e.met.OverdueRate.Merge(sl.overdueRate)
		e.met.ArrivalRate.Merge(sl.arrivalRate)
		if sl.accuracy.Len() > 0 {
			pts = append(pts, sl.accuracy.Points()...)
			merged = true
		}
		if sl.maxAccT > e.baseMaxAccT {
			e.baseMaxAccT = sl.maxAccT
		}
		for m := range e.baseDispatched {
			e.baseDispatched[m] += sl.dispatched[m]
		}
		e.basePopped += sl.popped
		sl.mu.Unlock()
	}
	if merged {
		// Slot series are individually time ordered but interleave across
		// groups; a stable merge keeps same-timestamp samples in slot order.
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
		acc := metrics.NewTimeSeries("accuracy")
		for _, p := range pts {
			_ = acc.Append(p.T, p.V)
		}
		e.met.Accuracy = acc
	}
}

// latenciesInOrder returns the slot's latency window in insertion order
// (unrolling the ring when the cap has wrapped).
func (sl *metricSlotState) latenciesInOrder() []float64 {
	if sl.latencyCap > 0 && len(sl.latencies) >= sl.latencyCap && sl.latHead > 0 {
		out := make([]float64, 0, len(sl.latencies))
		out = append(out, sl.latencies[sl.latHead:]...)
		return append(out, sl.latencies[:sl.latHead]...)
	}
	return sl.latencies
}

// latenciesInOrder is the Metrics-side twin of the slot helper, used when
// folding the retired base into a read.
func (m *Metrics) latenciesInOrder() []float64 {
	if m.LatencyCap > 0 && len(m.Latencies) >= m.LatencyCap && m.latHead > 0 {
		out := make([]float64, 0, len(m.Latencies))
		out = append(out, m.Latencies[m.latHead:]...)
		return append(out, m.Latencies[:m.latHead]...)
	}
	return m.Latencies
}

// rebindPolicies installs each group's policy instance: with one group the
// canonical Policy itself (the classic engine, identical object identity);
// with several, per-group clones when the policy supports fanning out, else
// the shared instance with Decide→Feedback spans serialized on polMu.
func (e *Engine) rebindPolicies() {
	if len(e.groups) == 1 {
		e.groups[0].pol, e.groups[0].shared = e.Policy, false
		return
	}
	gp, ok := e.Policy.(GroupedPolicy)
	for g := range e.groups {
		if ok {
			e.groups[g].pol, e.groups[g].shared = gp.CloneForGroup(g), false
		} else {
			e.groups[g].pol, e.groups[g].shared = e.Policy, true
		}
	}
}

// SetShards re-shards the queue layer to n FIFOs. Queued requests are
// re-hashed onto the new shards in global arrival order, so nothing is
// dropped or reordered within a shard; the dispatch groups repartition over
// the new shard set. Drivers serialize this with all decision loops;
// concurrent Enqueues are held off for the duration of the swap.
func (e *Engine) SetShards(n int) error {
	if n < 1 || n > maxEngineShards {
		return fmt.Errorf("infer: shard count must be in [1, %d], got %d", maxEngineShards, n)
	}
	if n == len(e.shards) {
		return nil
	}
	e.topo.Lock()
	defer e.topo.Unlock()
	var all []Request
	var events []arrivalEvent
	for i := range e.shards {
		sh := &e.shards[i]
		if l := sh.q.Len(); l > 0 {
			all = append(all, sh.q.PopN(l)...)
		}
		events = append(events, sh.events...)
		sh.events = nil
	}
	// Each old shard was FIFO; restore the global arrival order before
	// re-hashing so every new shard is FIFO too.
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Arrival != all[j].Arrival {
			return all[i].Arrival < all[j].Arrival
		}
		return all[i].ID < all[j].ID
	})
	e.shards = make([]engineShard, n)
	for i := range e.shards {
		e.shards[i].q = NewQueue(0)
	}
	e.shards[0].events = events
	for _, r := range all {
		e.shards[shardFor(r.ID, n)].q.Push(r)
	}
	e.nshards.Store(int32(n))
	e.rebuildGroups(int(e.ngroups.Load()))
	return nil
}

// SetGroups repartitions dispatch across n concurrent planes: shard s is
// drained by group s mod n, each group runs its own decision loop against
// the shared replica pools via leases. One group is the classic fully
// serialized engine. Callers exclude all decision loops for the duration.
func (e *Engine) SetGroups(n int) error {
	if n < 1 || n > maxEngineGroups {
		return fmt.Errorf("infer: dispatch-group count must be in [1, %d], got %d", maxEngineGroups, n)
	}
	if n == len(e.groups) {
		return nil
	}
	e.topo.Lock()
	defer e.topo.Unlock()
	e.rebuildGroups(n)
	return nil
}

// boundedWindowCounter builds a window counter keeping only the most recent
// keep windows.
func boundedWindowCounter(width float64, keep int) *metrics.WindowCounter {
	w := metrics.NewWindowCounter(width)
	w.Keep = keep
	return w
}

// SetPolicy swaps the scheduling policy in place. Queued requests and busy
// replicas are untouched: the next decision point simply asks the new policy,
// so a live deployment can move between greedy and RL scheduling without
// dropping work. The per-model dispatch-share history resets — a new policy
// routes the stream differently, so the old shares would mis-split the
// backlog signal. Drivers serialize this with all decision loops.
func (e *Engine) SetPolicy(p Policy) error {
	if p == nil {
		return fmt.Errorf("infer: nil policy")
	}
	e.Policy = p
	e.rebindPolicies()
	e.metMu.Lock()
	e.basePopped = 0
	for m := range e.baseDispatched {
		e.baseDispatched[m] = 0
	}
	for g := range e.metSlots {
		sl := &e.metSlots[g].metricSlotState
		sl.mu.Lock()
		sl.popped = 0
		for m := range sl.dispatched {
			sl.dispatched[m] = 0
		}
		sl.mu.Unlock()
	}
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
// control lock) updates the retired state and never mixes the old τ into the
// new δ.
type backoffState struct {
	tau, floor, cap float64
	// delta holds δ as float64 bits.
	delta atomic.Uint64
}

// resetBackoff starts δ at the deployment's BackoffDelta for its current τ.
// Callers exclude decision loops (construction, or SetTau under the
// runtime's control lock).
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

// SetQueueCap rebounds the request queue (0 = unbounded; the cap is global
// across shards). Shrinking below the current backlog keeps the queued
// requests — only new arrivals are rejected until the queue drains under the
// new cap.
func (e *Engine) SetQueueCap(n int) error {
	if n < 0 {
		return fmt.Errorf("infer: queue cap must be non-negative, got %d", n)
	}
	e.queueCap.Store(int64(n))
	return nil
}

// ReplicaCounts returns the current per-model replica counts.
func (e *Engine) ReplicaCounts() []int {
	out := make([]int, len(e.pools))
	for m := range e.pools {
		p := &e.pools[m].replicaPoolState
		p.mu.Lock()
		out[m] = len(p.busy)
		p.mu.Unlock()
	}
	return out
}

// SetReplicas resizes model m's replica pool to n. Growing adds immediately
// free replicas; shrinking drops the highest-indexed slots (their containers
// are being torn down — batches already dispatched to them still complete,
// the slots just stop taking new work). Callers exclude decision loops, so
// no lease is outstanding on a dropped slot.
func (e *Engine) SetReplicas(m, n int) error {
	if m < 0 || m >= len(e.pools) {
		return fmt.Errorf("infer: model index %d out of range", m)
	}
	if n < 1 {
		return fmt.Errorf("infer: model %s needs at least one replica, got %d", e.Deployment.ModelNames[m], n)
	}
	p := &e.pools[m].replicaPoolState
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.busy) < n {
		p.busy = append(p.busy, 0)
		p.down = append(p.down, false)
		p.leased = append(p.leased, false)
		p.repBatch = append(p.repBatch, 0)
	}
	p.busy = p.busy[:n]
	p.down = p.down[:n]
	p.leased = p.leased[:n]
	p.repBatch = p.repBatch[:n]
	p.refreshHint()
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
	p := &e.pools[m].replicaPoolState
	p.mu.Lock()
	defer p.mu.Unlock()
	p.busy = append(p.busy, 0)
	p.down = append(p.down, true)
	p.leased = append(p.leased, false)
	p.repBatch = append(p.repBatch, 0)
	p.refreshHint()
	return len(p.busy) - 1, nil
}

// SetReplicaDown marks replica r of model m dead (down=true: dispatch skips
// it) or recovered (down=false). The cluster manager's failure-detection and
// restart hooks drive this.
func (e *Engine) SetReplicaDown(m, r int, down bool) error {
	if m < 0 || m >= len(e.pools) {
		return fmt.Errorf("infer: model index %d out of range", m)
	}
	p := &e.pools[m].replicaPoolState
	p.mu.Lock()
	defer p.mu.Unlock()
	if r < 0 || r >= len(p.busy) {
		return fmt.Errorf("infer: model %s has no replica %d", e.Deployment.ModelNames[m], r)
	}
	p.down[r] = down
	if !down {
		// A restarted container comes back idle regardless of what its
		// predecessor was doing.
		p.busy[r] = 0
	}
	p.refreshHint()
	return nil
}

// claim is the lease critical section: it marks the earliest-free free
// replica of every model as leased by the calling group and snapshots the
// busy-left view of the rest into ls (reset first, so a group's scratch lease
// set is reusable across iterations). Each model's pool is visited under its
// own lock, and the atomic earliest-free hint short-circuits models that
// cannot possibly have a free replica: leased replicas always carry
// busy ≤ now (leases are only taken on free replicas and commit advances
// busy while clearing the lease), so a hint strictly in the future proves
// every live replica is unleased and busy — the hint *is* the old locked
// scan's earliest busy-until, bit for bit — and +Inf proves no live replica
// at all. The caller plans its batch outside the locks and either commits the
// leases it uses (commitLease) or returns them untouched (releaseLease).
func (e *Engine) claim(now float64, ls *leaseSet) {
	ls.reset(len(e.pools))
	for m := range e.pools {
		p := &e.pools[m].replicaPoolState
		if h := math.Float64frombits(p.hint.Load()); h > now+1e-12 {
			if math.IsInf(h, 1) {
				ls.allDown[m] = true
			} else {
				ls.until[m] = h
			}
			continue
		}
		p.mu.Lock()
		idx, until := -1, 0.0
		live := false
		for r, u := range p.busy {
			if p.down[r] {
				continue
			}
			live = true
			if p.leased[r] {
				continue
			}
			if idx < 0 || u < until {
				idx, until = r, u
			}
		}
		switch {
		case !live:
			ls.allDown[m] = true
		case idx < 0:
			// Every live replica is leased by a sibling group. The soonest
			// one could possibly free is a smallest-batch service away —
			// an optimistic busy-left floor for the policy's features.
			ls.until[m] = now + e.modelLatency(m, e.Deployment.Batches[0])
		case until <= now+1e-12:
			p.leased[idx] = true
			ls.rep[m] = idx
			ls.free[m] = true
			ls.n++
		default:
			ls.until[m] = until
		}
		p.mu.Unlock()
	}
}

// releaseLease returns every uncommitted lease to the pool (a wait decision,
// or an error before commit).
func (e *Engine) releaseLease(ls *leaseSet) {
	if ls.n == 0 {
		return
	}
	for m, r := range ls.rep {
		if r < 0 {
			continue
		}
		p := &e.pools[m].replicaPoolState
		p.mu.Lock()
		p.leased[r] = false
		p.mu.Unlock()
	}
	ls.n = 0
}

// commitLease occupies the chosen models' leased replicas until their batch
// finish times (refreshing each pool's earliest-free hint) and returns every
// other lease to the pool. finish is parallel to models.
func (e *Engine) commitLease(ls *leaseSet, models []int, finish []float64, batch int) {
	for i, m := range models {
		r := ls.rep[m]
		p := &e.pools[m].replicaPoolState
		p.mu.Lock()
		p.busy[r] = finish[i]
		p.repBatch[r] = batch
		p.leased[r] = false
		p.refreshHint()
		p.mu.Unlock()
		ls.rep[m] = -1
	}
	for m, r := range ls.rep {
		if r < 0 {
			continue
		}
		p := &e.pools[m].replicaPoolState
		p.mu.Lock()
		p.leased[r] = false
		p.mu.Unlock()
	}
	ls.n = 0
}

// Metrics returns a consistent fold of the engine's metric plane (the
// retired base plus every live per-group slot) after folding in any buffered
// arrival events. The fold is non-destructive — repeated calls observe the
// cumulative run — and with a single dispatch group it reproduces the classic
// shared-plane numbers bit-for-bit (every base field starts at zero, and
// 0 + x is exact). Callers own the returned value; the engine never mutates
// it after return. Safe to call concurrently with decision loops.
func (e *Engine) Metrics() *Metrics {
	e.flushArrivals()
	return e.foldMetrics()
}

// foldMetrics folds base + slots into one freshly allocated Metrics. Lock
// order: metMu, then slot locks in index order.
func (e *Engine) foldMetrics() *Metrics {
	e.metMu.Lock()
	defer e.metMu.Unlock()
	b := e.met
	out := &Metrics{
		Served:          b.Served,
		Overdue:         b.Overdue,
		Dropped:         b.Dropped,
		Reward:          b.Reward,
		Decisions:       int(e.decisions.Load()),
		Dispatches:      b.Dispatches,
		Stolen:          b.Stolen,
		LatencyCap:      e.latencyCap,
		ServedRate:      boundedWindowCounter(1, servedRateKeep),
		OverdueRate:     boundedWindowCounter(1, e.rateKeep),
		ArrivalRate:     boundedWindowCounter(1, e.rateKeep),
		Accuracy:        metrics.NewTimeSeries("accuracy"),
		GroupDispatches: make([]int, len(e.metSlots)),
	}
	out.ServedRate.Merge(b.ServedRate)
	out.OverdueRate.Merge(b.OverdueRate)
	out.ArrivalRate.Merge(b.ArrivalRate)
	out.Latencies = append(out.Latencies, b.latenciesInOrder()...)
	if len(b.BatchSizes) > 0 {
		out.BatchSizes = make(map[int]int, len(b.BatchSizes))
		for sz, c := range b.BatchSizes {
			out.BatchSizes[sz] = c
		}
	}
	pts := b.Accuracy.Points()
	sorted := true
	for g := range e.metSlots {
		sl := &e.metSlots[g].metricSlotState
		sl.mu.Lock()
		out.Served += sl.served
		out.Overdue += sl.overdue
		out.Dropped += sl.dropped
		out.Dispatches += sl.dispatches
		out.Stolen += sl.stolen
		out.Reward += sl.reward
		out.GroupDispatches[g] = sl.dispatches
		if len(sl.batchSizes) > 0 && out.BatchSizes == nil {
			out.BatchSizes = make(map[int]int, len(sl.batchSizes))
		}
		for sz, c := range sl.batchSizes {
			out.BatchSizes[sz] += c
		}
		out.Latencies = append(out.Latencies, sl.latenciesInOrder()...)
		out.ServedRate.Merge(sl.servedRate)
		out.OverdueRate.Merge(sl.overdueRate)
		out.ArrivalRate.Merge(sl.arrivalRate)
		if sl.accuracy.Len() > 0 {
			if len(pts) > 0 {
				sorted = false
			}
			pts = append(pts, sl.accuracy.Points()...)
		}
		sl.mu.Unlock()
	}
	if !sorted {
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	}
	for _, p := range pts {
		_ = out.Accuracy.Append(p.T, p.V)
	}
	return out
}

// QueueLen returns the number of queued (not yet dispatched) requests across
// every shard. Safe to call concurrently.
func (e *Engine) QueueLen() int { return int(e.queued.Load()) }

// ShardQueueLens returns the per-shard queue depths. Safe to call
// concurrently.
func (e *Engine) ShardQueueLens() []int {
	e.topo.RLock()
	defer e.topo.RUnlock()
	out := make([]int, len(e.shards))
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		out[i] = sh.q.Len()
		sh.mu.Unlock()
	}
	return out
}

// GroupQueueLen returns the queued backlog across group g's shards. Safe to
// call concurrently; 0 for a group index beyond the live count.
func (e *Engine) GroupQueueLen(g int) int {
	e.topo.RLock()
	defer e.topo.RUnlock()
	if g < 0 || g >= len(e.groups) {
		return 0
	}
	n := 0
	for _, si := range e.groups[g].shards {
		sh := &e.shards[si]
		sh.mu.Lock()
		n += sh.q.Len()
		sh.mu.Unlock()
	}
	return n
}

// Enqueue admits a request at time now onto its hash shard, buffering the
// arrival/drop metric event for the next decision point. Safe for concurrent
// use: submitters on different shards touch disjoint locks.
func (e *Engine) Enqueue(now float64, r Request) bool {
	e.topo.RLock()
	defer e.topo.RUnlock()
	sh := &e.shards[shardFor(r.ID, len(e.shards))]
	if cap := e.queueCap.Load(); cap > 0 && e.queued.Add(1) > cap {
		// Admission overshot the global cap: undo and drop.
		e.queued.Add(-1)
		sh.mu.Lock()
		sh.events = append(sh.events, arrivalEvent{now: now, dropped: true})
		sh.mu.Unlock()
		return false
	} else if cap <= 0 {
		// Unbounded queue: the cap check short-circuited, so count here.
		e.queued.Add(1)
	}
	sh.mu.Lock()
	sh.q.Push(r)
	sh.events = append(sh.events, arrivalEvent{now: now, at: r.Arrival})
	sh.mu.Unlock()
	return true
}

// flushArrivals folds buffered enqueue events into the canonical metrics.
// Safe for concurrent use: it pins the shard topology shared (a live
// re-shard swaps the slice and moves the buffered events), shard buffers
// drain under their own locks, and the fold happens under metMu; the
// counters are commutative, so interleaved flushes from sibling groups land
// identically.
func (e *Engine) flushArrivals() {
	e.topo.RLock()
	defer e.topo.RUnlock()
	e.flushArrivalsLocked()
}

// flushArrivalsLocked is flushArrivals for callers already holding topo
// (shared or exclusive) — a second RLock on the same goroutine could
// deadlock behind a waiting writer.
func (e *Engine) flushArrivalsLocked() {
	for i := range e.shards {
		e.flushShardLocked(i)
	}
}

// flushShardsLocked folds the buffered arrival events of just the given
// shard indices (a dispatch group's own shards). Decision loops use this so
// a group's step touches its own shard locks instead of sweeping every
// shard in the engine; the counters are commutative, so per-group partial
// flushes and the global flush at metric reads land identically.
func (e *Engine) flushShardsLocked(idx []int) {
	for _, si := range idx {
		e.flushShardLocked(si)
	}
}

// flushShardLocked drains shard si's buffered arrival events into the metric
// slot of the group that owns the shard (shard s → group s mod ngroups), so
// a plane flushing its own shards touches only its own slot lock.
func (e *Engine) flushShardLocked(si int) {
	sh := &e.shards[si]
	sh.mu.Lock()
	events := sh.events
	if len(events) == 0 {
		sh.mu.Unlock()
		return
	}
	sh.events, sh.spare = sh.spare[:0], nil
	sh.mu.Unlock()
	sl := &e.metSlots[si%len(e.metSlots)].metricSlotState
	sl.mu.Lock()
	for _, ev := range events {
		if ev.now < e.MeasureFrom {
			continue
		}
		if ev.dropped {
			sl.dropped++
		} else {
			sl.arrivalRate.Add(ev.at, 1)
		}
	}
	sl.mu.Unlock()
	// Two flushes of one shard may race (a metric read and the owning
	// group's step); each hands its drained buffer back, and the loser's is
	// simply dropped.
	sh.mu.Lock()
	sh.spare = events[:0]
	sh.mu.Unlock()
}

// nextShard returns the group's next non-empty shard at or after its
// round-robin cursor, advancing the cursor past it; ok is false when every
// shard in the group is empty (a concurrent enqueue may have bumped the
// global count before its push landed — the submitter's own decision point
// covers it).
func (e *Engine) nextShard(gr *engineGroup) (int, bool) {
	n := len(gr.shards)
	for off := 0; off < n; off++ {
		i := (gr.rr + off) % n
		sh := &e.shards[gr.shards[i]]
		sh.mu.Lock()
		l := sh.q.Len()
		sh.mu.Unlock()
		if l > 0 {
			gr.rr = (i + 1) % n
			return gr.shards[i], true
		}
	}
	return 0, false
}

// nonEmptyShards counts group gr's shards with queued requests.
func (e *Engine) nonEmptyShards(gr *engineGroup) int {
	n := 0
	for _, si := range gr.shards {
		sh := &e.shards[si]
		sh.mu.Lock()
		if sh.q.Len() > 0 {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// Step runs one decision point across every dispatch group in order — the
// single-threaded driver surface (the Simulator, and the Runtime's control
// path). With one group this is exactly the classic engine loop. The driver
// must call Step again at every returned ModelFinish time (each model
// freeing is a new decision point).
func (e *Engine) Step(now float64) ([]DispatchOutcome, error) {
	e.topo.RLock()
	defer e.topo.RUnlock()
	var outs []DispatchOutcome
	for g := range e.groups {
		o, err := e.stepGroupLocked(now, g)
		outs = append(outs, o...)
		if err != nil {
			return outs, err
		}
	}
	return outs, nil
}

// StepGroup runs one decision point for dispatch group g at time now,
// returning the executed dispatches. Safe to call concurrently for
// *different* groups; callers serialize decision points within one group
// (the Runtime holds the group's plane lock). A group index beyond the live
// count is a no-op (a stale wakeup after a reconfigure).
func (e *Engine) StepGroup(now float64, g int) ([]DispatchOutcome, error) {
	e.topo.RLock()
	defer e.topo.RUnlock()
	if g < 0 || g >= len(e.groups) {
		return nil, nil
	}
	return e.stepGroupLocked(now, g)
}

// stepGroupLocked is one group's decision loop with topo held shared: it
// visits the group's non-empty queue shards round-robin, claiming replica
// leases, invoking the group's policy on each shard until every waiting
// shard has been offered once with no dispatch, the queues empty, or no
// model is free. Reward accounting and occupancy stay global — grouping
// partitions the drain loop, not the model pool.
func (e *Engine) stepGroupLocked(now float64, g int) ([]DispatchOutcome, error) {
	gr := &e.groups[g]
	if len(gr.shards) == 0 {
		return nil, nil
	}
	// Fold only this group's shard buffers: arrival counters are
	// commutative, sibling groups flush their own shards, and every metric
	// read still flushes globally — so the fold stays exact while a step no
	// longer takes every shard lock in the engine.
	e.flushShardsLocked(gr.shards)
	var outs []DispatchOutcome
	// waits counts consecutive policy waits; waitTarget is the non-empty
	// shard count snapshotted at the first wait of each run (a dispatch
	// resets the run), so a wait-heavy sweep costs one shard scan instead
	// of one per wait.
	waits, waitTarget := 0, 0
	for {
		if len(outs) > 64*len(gr.shards) {
			return outs, fmt.Errorf("infer: policy %s dispatched %d times in one decision point", gr.pol.Name(), len(outs))
		}
		if e.QueueLen() == 0 {
			return outs, nil
		}
		si, ok := e.nextShard(gr)
		if !ok {
			return outs, nil
		}
		ls := &gr.lease
		e.claim(now, ls)
		if ls.n == 0 {
			return outs, nil
		}
		st := e.stateForShard(now, gr, si, ls, &gr.st)
		if gr.shared {
			e.polMu.Lock()
		}
		e.decisions.Add(1)
		act := gr.pol.Decide(st)
		if act.Wait {
			e.releaseLease(ls)
			gr.pol.Feedback(0)
			if gr.shared {
				e.polMu.Unlock()
			}
			waits++
			if waits == 1 {
				waitTarget = e.nonEmptyShards(gr)
			}
			if waits >= waitTarget {
				return outs, nil
			}
			continue
		}
		out, err := e.dispatch(now, gr, g, si, act, ls)
		if err != nil {
			if gr.shared {
				e.polMu.Unlock()
			}
			e.releaseLease(ls)
			return outs, err
		}
		gr.pol.Feedback(out.Reward)
		if gr.shared {
			e.polMu.Unlock()
		}
		waits = 0
		outs = append(outs, out)
	}
}

// state builds the classic policy view for draining shard si — the
// single-group engine's decision state, kept for tests and tooling. It
// claims and immediately releases a lease set, so it must not run
// concurrently with decision loops. The returned state is freshly allocated
// (no group scratch), so callers may hold it across later decision points.
func (e *Engine) state(now float64, si int) *State {
	var ls leaseSet
	e.claim(now, &ls)
	st := e.stateForShard(now, &e.groups[0], si, &ls, new(State))
	e.releaseLease(&ls)
	return st
}

// stateForShard builds the policy's decision state at time now for group gr
// draining shard si into st (reusing st's Waits/BusyLeft buffers, so a
// group's scratch state costs no steady-state allocations): the queue view
// (depth and head waits) is the shard's — widened by the sibling requests
// work-stealing could pull in when the shard alone cannot fill the maximum
// batch — and the model view is the lease set's snapshot of the shared pools.
func (e *Engine) stateForShard(now float64, gr *engineGroup, si int, ls *leaseSet, st *State) *State {
	d := e.Deployment
	sh := &e.shards[si]
	sh.mu.Lock()
	queueLen := sh.q.Len()
	waits := sh.q.WaitsAppend(now, 16, st.Waits[:0])
	sh.mu.Unlock()
	if steal := e.stealable(gr, si, queueLen); steal > 0 {
		queueLen += steal
	}
	if cap(st.BusyLeft) < len(d.Profiles) {
		st.BusyLeft = make([]float64, len(d.Profiles))
	}
	*st = State{
		Now:          now,
		QueueLen:     queueLen,
		Waits:        waits,
		FreeModels:   ls.free,
		BusyLeft:     st.BusyLeft[:len(d.Profiles)],
		Tau:          d.Tau,
		Delta:        e.backoffDelta(),
		Batches:      d.Batches,
		LatencyTable: e.latencyTable(),
	}
	for m := range st.BusyLeft {
		switch {
		case ls.free[m]:
			st.BusyLeft[m] = 0
		case ls.allDown[m]:
			// Every replica is down: the model cannot serve until the
			// cluster manager restarts a container.
			st.BusyLeft[m] = math.Inf(1)
		default:
			left := ls.until[m] - now
			if left < 0 {
				left = 0
			}
			st.BusyLeft[m] = left
		}
	}
	return st
}

// stealable reports how many sibling-shard requests work-stealing could pull
// into a batch headed by shard si: nothing while the shard itself covers the
// maximum candidate batch (Algorithm 3's full-batch rule needs no help), and
// at most the gap to that batch otherwise.
func (e *Engine) stealable(gr *engineGroup, si, own int) int {
	maxB := e.Deployment.MaxBatch()
	if own >= maxB || len(gr.shards) < 2 {
		return 0
	}
	gap := maxB - own
	steal := 0
	for _, sj := range gr.shards {
		if sj == si {
			continue
		}
		sh := &e.shards[sj]
		sh.mu.Lock()
		steal += sh.q.Len()
		sh.mu.Unlock()
		if steal >= gap {
			return gap
		}
	}
	return steal
}

// popBatch assembles a dispatch batch of up to n requests headed by shard
// si: the shard's own oldest requests first, then — when the shard alone
// cannot fill the batch — requests stolen from the heads of the group's
// sibling shards in round-robin order. Stealing from a sibling's head keeps
// every shard's FIFO order intact: a shard's remaining requests are all
// younger than the ones just taken. Returns the batch and how many requests
// were stolen. The batch backing array is allocated once up front — it
// escapes into the DispatchOutcome the driver holds until the batch
// finishes, so unlike the group's decision scratch it cannot be pooled —
// and every shard appends into it in place.
func (e *Engine) popBatch(gr *engineGroup, si, n int) ([]Request, int) {
	batch := make([]Request, 0, n)
	sh := &e.shards[si]
	sh.mu.Lock()
	own := n
	if l := sh.q.Len(); own > l {
		own = l
	}
	if own > 0 {
		batch = sh.q.PopAppend(own, batch)
	}
	sh.mu.Unlock()
	stolen := 0
	if len(batch) < n {
		// Visit siblings in the group's shard order starting after si, so
		// the steal order is deterministic and follows the drain rotation.
		start := 0
		for i, s := range gr.shards {
			if s == si {
				start = i + 1
				break
			}
		}
		for off := 0; off < len(gr.shards)-1 && len(batch) < n; off++ {
			sj := gr.shards[(start+off)%len(gr.shards)]
			if sj == si {
				continue
			}
			sib := &e.shards[sj]
			sib.mu.Lock()
			take := n - len(batch)
			if l := sib.q.Len(); take > l {
				take = l
			}
			if take > 0 {
				batch = sib.q.PopAppend(take, batch)
				stolen += take
			}
			sib.mu.Unlock()
		}
	}
	return batch, stolen
}

// dispatch validates and executes an action at time now for group g against
// shard si's queue (topping the batch up from sibling shards when the shard
// alone cannot fill it), committing the lease set's claimed replicas and
// returning the outcome with the Equation 7 reward:
// a(M[v]) · (b − β·|overdue in batch|), normalized by the maximum batch size
// so rewards stay O(1).
func (e *Engine) dispatch(now float64, gr *engineGroup, g, si int, act Action, ls *leaseSet) (DispatchOutcome, error) {
	d := e.Deployment
	if len(act.Models) == 0 {
		return DispatchOutcome{}, fmt.Errorf("infer: dispatch with empty model subset")
	}
	validBatch := false
	for _, b := range d.Batches {
		if act.Batch == b {
			validBatch = true
			break
		}
	}
	if !validBatch {
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
		if ls.rep[mi] < 0 {
			if ls.allDown[mi] {
				return DispatchOutcome{}, fmt.Errorf("infer: model %s has no live replica", d.ModelNames[mi])
			}
			return DispatchOutcome{}, fmt.Errorf("infer: model %s is busy until %v", d.ModelNames[mi], ls.until[mi])
		}
		names[i] = d.ModelNames[mi]
		replicas[i] = ls.rep[mi]
	}
	// Equation 7's accuracy term comes from the surrogate table (internally
	// locked), resolved before the batch pops — an accuracy error then
	// leaves the queue intact — and outside metMu, so sibling planes'
	// metric folds never serialize behind a table lookup. The bitmask cache
	// short-circuits the steady state: after the first dispatch of a subset,
	// siblings hit a lock-free map keyed by the model index set.
	var mask uint64
	maskable := len(d.Profiles) <= 64
	if maskable {
		for _, mi := range act.Models {
			mask |= 1 << uint(mi)
		}
	}
	var acc float64
	if v, ok := e.accByMask.Load(mask); maskable && ok {
		acc = v.(float64)
	} else {
		var err error
		acc, err = e.AccTable.Accuracy(names)
		if err != nil {
			return DispatchOutcome{}, err
		}
		if maskable {
			e.accByMask.Store(mask, acc)
		}
	}

	batch, stolen := e.popBatch(gr, si, act.Batch)
	n := len(batch)
	if n == 0 {
		return DispatchOutcome{}, fmt.Errorf("infer: dispatch on empty queue")
	}
	e.queued.Add(-int64(n))

	// ModelFinish and ModelLatency share one allocation: both escape into
	// the outcome the driver holds until the batch completes.
	times := make([]float64, 2*len(act.Models))
	out := DispatchOutcome{
		Requests:     batch,
		Models:       models,
		ModelNames:   names,
		Replicas:     replicas,
		Batch:        act.Batch,
		Stolen:       stolen,
		Group:        g,
		Decided:      now,
		ModelFinish:  times[:len(act.Models):len(act.Models)],
		ModelLatency: times[len(act.Models):],
		Finish:       now,
	}
	// Occupy the chosen replica of each selected model; the ensemble
	// completes with the slowest.
	for i, mi := range act.Models {
		lat := e.modelLatency(mi, n)
		out.ModelLatency[i] = lat
		f := now + lat
		out.ModelFinish[i] = f
		if f > out.Finish {
			out.Finish = f
		}
	}
	e.commitLease(ls, act.Models, out.ModelFinish, n)

	measured := now >= e.MeasureFrom
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
	// The metric fold lands entirely in this group's own slot: the hot path
	// never takes metMu, so sibling planes' dispatches proceed without
	// serializing on (or cache-ping-ponging over) a shared metric lock.
	sl := &e.metSlots[g].metricSlotState
	sl.mu.Lock()
	sl.popped += uint64(n)
	for _, mi := range act.Models {
		sl.dispatched[mi] += uint64(n)
	}
	// Exponentially decay the share counters so Backlogs tracks the recent
	// stream, not lifetime history: halving preserves the ratios while a
	// workload shift washes out within a few half-lives.
	if sl.popped >= shareHalfLife {
		sl.popped >>= 1
		for m := range sl.dispatched {
			sl.dispatched[m] >>= 1
		}
	}
	if measured {
		sl.servedRate.Add(out.Finish, float64(n))
	}
	for _, r := range batch {
		lat := out.Finish - r.Arrival
		if measured {
			sl.addLatency(lat)
			sl.served++
		}
		if lat > d.Tau {
			out.Overdue++
			if measured {
				sl.overdue++
				sl.overdueRate.Add(out.Finish, 1)
			}
		}
	}

	out.Reward = rewardAcc * (float64(n) - d.Beta*float64(out.Overdue)) / float64(d.MaxBatch())
	if measured {
		sl.reward += out.Reward
		sl.dispatches++
		sl.stolen += stolen
		sl.batchSizes[n]++
	}

	// Measured accuracy via simulated predictions.
	if e.Predictor != nil && measured {
		correct := 0
		for _, r := range batch {
			preds, truth, err := e.Predictor.PredictAll(r.ID, names)
			if err != nil {
				sl.mu.Unlock()
				return DispatchOutcome{}, err
			}
			vote, err := ensemble.VoteModels(names, preds)
			if err != nil {
				sl.mu.Unlock()
				return DispatchOutcome{}, err
			}
			if vote == truth {
				correct++
			}
		}
		// Finish times are not globally monotone across a group's models;
		// clamp to the slot's newest accuracy sample time so the per-slot
		// series stays time ordered (the fold merge-sorts across slots).
		at := out.Finish
		if at < sl.maxAccT {
			at = sl.maxAccT
		}
		sl.maxAccT = at
		if err := sl.accuracy.Append(at, float64(correct)/float64(n)); err != nil {
			sl.mu.Unlock()
			return DispatchOutcome{}, err
		}
	}
	sl.mu.Unlock()
	return out, nil
}

// addLatency records one request latency into the slot's window, honouring
// its cap (the slot-local twin of Metrics.addLatency).
func (sl *metricSlotState) addLatency(l float64) {
	if sl.latencyCap > 0 && len(sl.latencies) >= sl.latencyCap {
		sl.latencies[sl.latHead] = l
		sl.latHead = (sl.latHead + 1) % sl.latencyCap
		return
	}
	sl.latencies = append(sl.latencies, l)
}

// shareHalfLife bounds the dispatch-share history feeding Backlogs: once
// this many requests have been counted, every counter halves.
const shareHalfLife = 1 << 14

// MetricSnapshot is a consistent copy of the engine's reward/metric plane,
// safe to read while decision loops keep dispatching (the concurrent
// drivers' alternative to Metrics).
type MetricSnapshot struct {
	Served, Overdue, Dropped int
	Decisions, Dispatches    int
	Stolen                   int
	Reward                   float64
	BatchSizes               map[int]int
	BatchSizeMean            float64
	GroupDispatches          []int
	Latencies                []float64
	DrainRate, ArrivalRate   float64
}

// SnapshotMetrics folds the metric plane (base + per-group slots) into a
// consistent copy, with the drain and arrival rates computed over the
// trailing window (timeline seconds) ending at now. Safe to call
// concurrently with decision loops.
func (e *Engine) SnapshotMetrics(now, window float64) MetricSnapshot {
	e.flushArrivals()
	m := e.foldMetrics()
	snap := MetricSnapshot{
		Served:          m.Served,
		Overdue:         m.Overdue,
		Dropped:         m.Dropped,
		Decisions:       m.Decisions,
		Dispatches:      m.Dispatches,
		Stolen:          m.Stolen,
		Reward:          m.Reward,
		BatchSizes:      m.BatchSizes,
		BatchSizeMean:   m.BatchSizeMean(),
		GroupDispatches: m.GroupDispatches,
		Latencies:       m.Latencies,
		DrainRate:       m.ServedRate.TotalSince(now-window) / window,
		ArrivalRate:     m.ArrivalRate.TotalSince(now-window) / window,
	}
	return snap
}

// DrainRate reports the recent completion rate (requests per timeline second
// over the trailing window) without a full metric snapshot — the rejection
// path reads it once per queue-full request, so it sums the served windows
// across base and slots instead of materializing a full fold. Safe to call
// concurrently.
func (e *Engine) DrainRate(now, window float64) float64 {
	since := now - window
	e.metMu.Lock()
	defer e.metMu.Unlock()
	s := e.met.ServedRate.TotalSince(since)
	for g := range e.metSlots {
		sl := &e.metSlots[g].metricSlotState
		sl.mu.Lock()
		s += sl.servedRate.TotalSince(since)
		sl.mu.Unlock()
	}
	return s / window
}

// Rates reports the recent arrival and drain rates (requests per timeline
// second over the trailing window). Safe to call concurrently.
func (e *Engine) Rates(now, window float64) (arrival, drain float64) {
	e.flushArrivals()
	since := now - window
	e.metMu.Lock()
	defer e.metMu.Unlock()
	arrival = e.met.ArrivalRate.TotalSince(since)
	drain = e.met.ServedRate.TotalSince(since)
	for g := range e.metSlots {
		sl := &e.metSlots[g].metricSlotState
		sl.mu.Lock()
		arrival += sl.arrivalRate.TotalSince(since)
		drain += sl.servedRate.TotalSince(since)
		sl.mu.Unlock()
	}
	return arrival / window, drain / window
}

// Backlogs reports each model's demand signal at time now: its estimated
// share of the queued backlog (by recent, exponentially decayed dispatch
// participation, folded across the per-group slots) plus the requests
// already in flight on its replicas. Safe to call concurrently with decision
// loops.
func (e *Engine) Backlogs(now float64) []ModelBacklog {
	queued := float64(e.QueueLen())
	nm := len(e.pools)
	disp := make([]uint64, nm)
	e.metMu.Lock()
	copy(disp, e.baseDispatched)
	popped := e.basePopped
	for g := range e.metSlots {
		sl := &e.metSlots[g].metricSlotState
		sl.mu.Lock()
		for m := range disp {
			disp[m] += sl.dispatched[m]
		}
		popped += sl.popped
		sl.mu.Unlock()
	}
	e.metMu.Unlock()
	out := make([]ModelBacklog, nm)
	for m := range out {
		share := 1.0
		if popped > 0 {
			share = float64(disp[m]) / float64(popped)
		}
		out[m].Queued = share * queued
		p := &e.pools[m].replicaPoolState
		p.mu.Lock()
		for r, until := range p.busy {
			if until > now+1e-12 {
				out[m].Inflight += p.repBatch[r]
			}
		}
		p.mu.Unlock()
	}
	return out
}

// Package infer implements Rafiki's inference service (Section 5): one FIFO
// request queue (DESIGN.md §9) with an SLO τ, the greedy max-batch scheduler
// of Algorithm 3 with its AIMD-style back-off check, the synchronous (all
// models, full ensemble) and asynchronous (one model per batch, no ensemble)
// baselines of Section 7.2.2, and one serving Runtime whose clock-agnostic
// decision core drives any scheduling policy — including the RL scheduler in
// internal/rl. A queued request carries its future's completion slot, so the
// queue is the only place a queued request lives and a submit takes one lock.
//
// The Runtime (DESIGN.md §6) batches real concurrent callers through the
// policies with per-request futures on the wall clock, and the Simulator
// harness runs it on a virtual-time event loop to replay the paper's
// sine-modulated workloads deterministically.
package infer

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"rafiki/internal/zoo"
)

// Request is a queued inference request.
type Request struct {
	ID      uint64
	Arrival float64
	// slot is the Runtime's completion record for the request: the queue is
	// the only place a queued request lives.
	slot *futureSlot
}

// Queue is the FIFO request queue ("we process the requests in the queue
// sequentially following FIFO"), backed by a growable ring buffer so PopN is
// O(n popped) rather than O(queue length).
type Queue struct {
	buf  []Request // ring storage; len(buf) is the current capacity
	head int       // index of the oldest request
	n    int       // live element count
	Cap  int       // maximum length; arrivals beyond it are dropped
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue(capacity int) *Queue { return &Queue{Cap: capacity} }

// Len returns the queue length.
func (q *Queue) Len() int { return q.n }

// at returns the i-th oldest request (0 ≤ i < Len).
func (q *Queue) at(i int) Request { return q.buf[(q.head+i)%len(q.buf)] }

// grow doubles the ring, unrolling it so head returns to index 0.
func (q *Queue) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]Request, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.at(i)
	}
	q.buf, q.head = buf, 0
}

// Push appends a request, or reports false and drops it if the queue is
// full.
func (q *Queue) Push(r Request) bool {
	if q.Cap > 0 && q.n >= q.Cap {
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = r
	q.n++
	return true
}

// PopN removes and returns the oldest n requests (n ≤ Len).
func (q *Queue) PopN(n int) []Request {
	return q.PopAppend(n, make([]Request, 0, n))
}

// PopAppend removes the oldest n requests (n ≤ Len), appending them to dst,
// so a dispatch pops into its pooled run's own buffer.
func (q *Queue) PopAppend(n int, dst []Request) []Request {
	if n > q.n {
		panic(fmt.Sprintf("infer: pop %d from queue of %d", n, q.n))
	}
	for i := 0; i < n; i++ {
		dst = append(dst, q.buf[q.head])
		q.buf[q.head] = Request{} // drop the completion-slot reference
		q.head = (q.head + 1) % len(q.buf)
	}
	q.n -= n
	if q.n == 0 {
		q.head = 0
	}
	return dst
}

// WaitsAppend appends up to k head-of-queue waiting times at now (the
// queue-status feature vector of Section 5.2, before padding) to buf
// (typically a scratch slice truncated to length 0), so steady-state
// decision loops read the queue-status features without allocating.
func (q *Queue) WaitsAppend(now float64, k int, buf []float64) []float64 {
	n := k
	if n > q.n {
		n = q.n
	}
	for i := 0; i < n; i++ {
		buf = append(buf, now-q.at(i).Arrival)
	}
	return buf
}

// Action is one scheduling decision: dispatch the oldest batch to a model
// subset, or wait.
type Action struct {
	// Wait, when true, defers dispatching to the next decision point.
	Wait bool
	// Until, on a wait, is the earliest time the answer can change without
	// an arrival or a returned pass: the driver decides again then. 0 means
	// only those events can change it.
	Until float64
	// Batch is the target batch size (one of the deployment's candidates).
	// The dispatcher serves min(Batch, queue length) requests.
	Batch int
	// Models are indices into the deployment's model list; every selected
	// model must currently be free. Must be non-empty for a dispatch.
	// The slice may alias the policy's reusable scratch: it is only valid
	// until the next Decide on the same policy instance; the runtime reads
	// it during the dispatch and does not retain it.
	Models []int
}

// State is the policy's view of the system at a decision point (Section
// 5.2's RL state: queue status + model status).
type State struct {
	Now        float64
	QueueLen   int
	Waits      []float64 // oldest-first waiting times (truncated)
	FreeModels []bool    // per model: free at Now
	BusyLeft   []float64 // per model: seconds until free
	Tau        float64
	// Delta is Algorithm 3's back-off δ: the runtime's controller, which
	// starts at the deployment's BackoffDelta (DESIGN.md §20).
	Delta   float64
	Batches []int
	// LatencyTable is c(m,b) for every model and candidate batch size.
	LatencyTable [][]float64
}

// Policy decides dispatches. Implementations must be deterministic given
// their own seeded randomness.
type Policy interface {
	Name() string
	// Decide returns the action for the current state.
	Decide(s *State) Action
	// Feedback delivers the reward of the immediately preceding Decide
	// (Equation 7 for dispatches, 0 for waits). Baselines ignore it.
	Feedback(reward float64)
}

// Deployment is a set of deployed models plus the serving parameters.
type Deployment struct {
	ModelNames []string
	Profiles   []*zoo.Profile
	Batches    []int
	Tau        float64
	// Beta balances accuracy vs overdue requests in the reward (Eq. 6/7).
	Beta float64
	// BackoffDelta is Algorithm 3's δ; the paper suggests 0.1τ. It is the
	// floor of the runtime's δ controller, which only its finished
	// batches move off it.
	BackoffDelta float64
	// AccuracyEmphasis κ amplifies accuracy differences in the reward
	// around the deployment's mean single-model accuracy:
	//
	//	reward = (ā + κ·(a(M[v]) − ā)) · (b − β·|overdue|) / maxB
	//
	// κ ≤ 1 keeps the paper's Equation 7 verbatim. Larger κ is a
	// variance-reduction shaping used by the Figure 16 experiment: with
	// training budgets of simulated minutes (the paper trains for hours),
	// the raw subset-choice advantage a(M[v])·n/maxB differs across
	// subsets by under 0.04 and drowns in exploration noise; κ restores
	// the signal-to-noise without changing which subset is best or the
	// role of β.
	AccuracyEmphasis float64
	// Replicas is the initial per-model replica count — how many cluster
	// containers serve each model concurrently (Section 6's horizontal
	// scaling). nil, short, or non-positive entries mean one replica, which
	// reproduces the single-instance runtime bit-for-bit. Live deployments
	// resize the pool through Runtime.SetReplicas.
	Replicas []int

	// latOnce/latTable cache LatencyTable: profiles and batch candidates are
	// immutable after construction, and every dispatch decision reads the
	// table, so it is materialized once and shared read-only.
	latOnce  sync.Once
	latTable [][]float64
}

// ReplicaCount returns the configured replica count for model m (≥ 1).
func (d *Deployment) ReplicaCount(m int) int {
	if m < len(d.Replicas) && d.Replicas[m] > 0 {
		return d.Replicas[m]
	}
	return 1
}

// NewDeployment builds a deployment for the named models.
func NewDeployment(models []string, batches []int, tau, beta float64) (*Deployment, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("infer: deployment needs models")
	}
	if len(models) > 64 {
		// A dispatch keys its model subset by a 64-bit mask.
		return nil, fmt.Errorf("infer: deployment has %d models, at most 64 are supported", len(models))
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("infer: deployment needs batch candidates")
	}
	for i := 1; i < len(batches); i++ {
		if batches[i] <= batches[i-1] {
			return nil, fmt.Errorf("infer: batch candidates must be increasing, got %v", batches)
		}
	}
	if tau <= 0 {
		return nil, fmt.Errorf("infer: tau must be positive, got %v", tau)
	}
	d := &Deployment{
		ModelNames:   append([]string(nil), models...),
		Batches:      append([]int(nil), batches...),
		Tau:          tau,
		Beta:         beta,
		BackoffDelta: 0.1 * tau,
	}
	for _, m := range models {
		p, err := zoo.Lookup(m)
		if err != nil {
			return nil, err
		}
		d.Profiles = append(d.Profiles, p)
	}
	return d, nil
}

// MaxBatch returns the largest candidate batch size.
func (d *Deployment) MaxBatch() int { return d.Batches[len(d.Batches)-1] }

// Latency returns c(model i, batch b).
func (d *Deployment) Latency(model, b int) float64 { return d.Profiles[model].BatchLatency(b) }

// LatencyTable returns c(m,b) over the batch candidates, materialized on
// first use and shared afterwards. Callers must treat the table as read-only.
func (d *Deployment) LatencyTable() [][]float64 {
	d.latOnce.Do(func() {
		d.latTable = make([][]float64, len(d.Profiles))
		for i, p := range d.Profiles {
			row := make([]float64, len(d.Batches))
			for j, b := range d.Batches {
				row[j] = p.BatchLatency(b)
			}
			d.latTable[i] = row
		}
	})
	return d.latTable
}

// MaxThroughput is the paper's ru: the sum of per-model throughput at the
// largest batch (all models running asynchronously).
func (d *Deployment) MaxThroughput() float64 {
	s := 0.0
	for _, p := range d.Profiles {
		s += p.Throughput(d.MaxBatch())
	}
	return s
}

// MinThroughput is the paper's rl: the slowest model's throughput at the
// largest batch (all models running synchronously).
func (d *Deployment) MinThroughput() float64 {
	minThr := math.Inf(1)
	for _, p := range d.Profiles {
		if t := p.Throughput(d.MaxBatch()); t < minThr {
			minThr = t
		}
	}
	return minThr
}

// percentiles sorts samples in place and reads the requested percentiles
// (each in [0,100]); all zeros for an empty sample set.
func percentiles(samples []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(samples) == 0 {
		return out
	}
	sort.Float64s(samples)
	for j, p := range ps {
		i := int(math.Ceil(p/100*float64(len(samples)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(samples) {
			i = len(samples) - 1
		}
		out[j] = samples[i]
	}
	return out
}

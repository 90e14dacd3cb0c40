package infer

import (
	"math"
	"testing"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/workload"
	"rafiki/internal/zoo"
)

var singleB = []int{16, 32, 48, 64}

func singleDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := NewDeployment([]string{"inception_v3"}, singleB, 0.56, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func multiDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := NewDeployment([]string{"inception_v3", "inception_v4", "inception_resnet_v2"}, singleB, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(0)
	for i := uint64(0); i < 5; i++ {
		q.Push(Request{ID: i, Arrival: float64(i)})
	}
	got := q.PopN(3)
	if got[0].ID != 0 || got[2].ID != 2 {
		t.Fatalf("popN = %+v", got)
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	waits := q.WaitsAppend(10, 5, nil)
	if len(waits) != 2 || waits[0] != 7 || waits[1] != 6 {
		t.Fatalf("waits = %v", waits)
	}
}

func TestQueueCapDrops(t *testing.T) {
	q := NewQueue(2)
	q.Push(Request{ID: 1})
	q.Push(Request{ID: 2})
	if q.Push(Request{ID: 3}) {
		t.Fatal("push over cap should fail")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d after a dropped push, want 2", q.Len())
	}
}

func TestQueuePopTooManyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQueue(0).PopN(1)
}

func TestDeploymentValidation(t *testing.T) {
	if _, err := NewDeployment(nil, singleB, 1, 1); err == nil {
		t.Fatal("no models should error")
	}
	if _, err := NewDeployment([]string{"inception_v3"}, nil, 1, 1); err == nil {
		t.Fatal("no batches should error")
	}
	if _, err := NewDeployment([]string{"inception_v3"}, []int{16, 16}, 1, 1); err == nil {
		t.Fatal("non-increasing batches should error")
	}
	if _, err := NewDeployment([]string{"inception_v3"}, singleB, 0, 1); err == nil {
		t.Fatal("zero tau should error")
	}
	if _, err := NewDeployment([]string{"not_a_model"}, singleB, 1, 1); err == nil {
		t.Fatal("unknown model should error")
	}
	many := make([]string, 65)
	for i := range many {
		many[i] = "inception_v3"
	}
	if _, err := NewDeployment(many, singleB, 1, 1); err == nil {
		t.Fatal("more than 64 models should error")
	}
}

func TestDeploymentThroughputAnchors(t *testing.T) {
	d := multiDeployment(t)
	if got := d.MaxThroughput(); math.Abs(got-572) > 5 {
		t.Fatalf("max throughput = %v, want ~572 (paper)", got)
	}
	if got := d.MinThroughput(); math.Abs(got-128) > 2 {
		t.Fatalf("min throughput = %v, want ~128 (paper)", got)
	}
	s := singleDeployment(t)
	if got := s.MaxThroughput(); math.Abs(got-272) > 2 {
		t.Fatalf("single max throughput = %v, want ~272", got)
	}
	tbl := d.LatencyTable()
	if len(tbl) != 3 || len(tbl[0]) != 4 {
		t.Fatal("latency table shape wrong")
	}
	if math.Abs(tbl[0][3]-0.235) > 1e-9 {
		t.Fatalf("c(iv3,64) = %v", tbl[0][3])
	}
}

// Algorithm 3 on a single model is SyncAll over a one-model deployment.
func TestGreedySingleDecisions(t *testing.T) {
	d := singleDeployment(t)
	g := &SyncAll{}
	base := &State{
		Tau: d.Tau, Delta: d.BackoffDelta, Batches: d.Batches, LatencyTable: d.LatencyTable(),
		FreeModels: []bool{true}, BusyLeft: []float64{0},
	}
	// Full queue: dispatch max batch.
	s := *base
	s.QueueLen = 100
	s.Waits = []float64{0.01}
	act := g.Decide(&s)
	if act.Wait || act.Batch != 64 {
		t.Fatalf("act = %+v, want batch 64", act)
	}
	// Queue 20, fresh head: wait (deadline far).
	s = *base
	s.QueueLen = 20
	s.Waits = []float64{0.01}
	if act := g.Decide(&s); !act.Wait {
		t.Fatalf("should wait with slack, got %+v", act)
	}
	// Queue 20, old head: c(16)+w+δ >= τ → dispatch 16.
	s = *base
	s.QueueLen = 20
	s.Waits = []float64{0.45}
	act = g.Decide(&s)
	if act.Wait || act.Batch != 16 {
		t.Fatalf("deadline dispatch = %+v, want batch 16", act)
	}
	// Queue below min batch: greedy always waits (the straggler flaw).
	s = *base
	s.QueueLen = 5
	s.Waits = []float64{5.0}
	if act := g.Decide(&s); !act.Wait {
		t.Fatalf("greedy should wait below min batch, got %+v", act)
	}
	// Busy model: wait.
	s = *base
	s.QueueLen = 100
	s.FreeModels = []bool{false}
	if act := g.Decide(&s); !act.Wait {
		t.Fatal("busy model should wait")
	}
}

func TestSyncAllBarrier(t *testing.T) {
	d := multiDeployment(t)
	p := &SyncAll{}
	s := &State{
		Tau: d.Tau, Delta: d.BackoffDelta, Batches: d.Batches, LatencyTable: d.LatencyTable(),
		FreeModels: []bool{true, false, true}, BusyLeft: []float64{0, 0.3, 0},
		QueueLen: 100, Waits: []float64{0.2},
	}
	if act := p.Decide(s); !act.Wait {
		t.Fatal("sync must wait for all models")
	}
	s.FreeModels = []bool{true, true, true}
	act := p.Decide(s)
	if act.Wait || act.Batch != 64 || len(act.Models) != 3 {
		t.Fatalf("sync dispatch = %+v", act)
	}
}

func TestAsyncEachRoundRobin(t *testing.T) {
	d := multiDeployment(t)
	p := &AsyncEach{}
	s := &State{
		Tau: d.Tau, Delta: d.BackoffDelta, Batches: d.Batches, LatencyTable: d.LatencyTable(),
		FreeModels: []bool{true, true, true}, BusyLeft: []float64{0, 0, 0},
		QueueLen: 200, Waits: []float64{0.1},
	}
	a1 := p.Decide(s)
	if a1.Wait || len(a1.Models) != 1 {
		t.Fatalf("async dispatch = %+v", a1)
	}
	// Action.Models aliases the policy's scratch, valid only until the next
	// Decide — snapshot the chosen model before deciding again.
	m1 := a1.Models[0]
	s.FreeModels[m1] = false
	a2 := p.Decide(s)
	if a2.Wait || a2.Models[0] == m1 {
		t.Fatalf("round robin broken: model %d then %+v", m1, a2)
	}
	// All busy: wait.
	s.FreeModels = []bool{false, false, false}
	if act := p.Decide(s); !act.Wait {
		t.Fatal("all-busy should wait")
	}
}

func runSim(t *testing.T, d *Deployment, p Policy, anchor, duration float64, seed int64) *Metrics {
	t.Helper()
	rng := sim.NewRNG(seed)
	arr, err := workload.NewSineArrival(anchor, 500*d.Tau, rng.SplitNamed("arrival"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulator(d, p, workload.NewSource(arr), ensemble.NewAccuracyTable(zoo.NewPredictor(seed), 4000))
	s.Predictor = zoo.NewPredictor(seed + 1)
	met, err := s.Run(duration)
	if err != nil {
		t.Fatal(err)
	}
	return met
}

func TestSimulatorGreedyServesLoad(t *testing.T) {
	d := singleDeployment(t)
	met := runSim(t, d, &SyncAll{}, 272, 300, 3)
	if met.Served == 0 {
		t.Fatal("no requests served")
	}
	// Conservation: served + queue remainder + dropped == arrivals.
	if met.Served > int(met.ArrivalRate.Total()) {
		t.Fatalf("served %d > arrivals %v", met.Served, met.ArrivalRate.Total())
	}
	// Greedy at the paper's rate keeps most requests under SLO...
	frac := float64(met.Overdue) / float64(met.Served)
	if frac > 0.5 {
		t.Fatalf("overdue fraction %v too high for greedy", frac)
	}
	// ...but the straggler flaw guarantees some overdue at rate troughs.
	if met.Overdue == 0 {
		t.Fatal("greedy should leave stragglers overdue at low rate (paper Fig 10)")
	}
	if met.Decisions == 0 || len(met.Latencies) != met.Served {
		t.Fatal("metrics bookkeeping inconsistent")
	}
}

func TestSimulatorSyncAccuracyConstant(t *testing.T) {
	d := multiDeployment(t)
	met := runSim(t, d, &SyncAll{}, 128, 200, 4)
	if met.Accuracy.Len() == 0 {
		t.Fatal("no accuracy samples")
	}
	// Sync always ensembles all 3 models: mean accuracy near the Figure 6
	// three-model band.
	mean := met.Accuracy.Mean()
	if mean < 0.80 || mean > 0.86 {
		t.Fatalf("sync accuracy = %v, want ~0.83", mean)
	}
}

func TestSimulatorAsyncAccuracyLower(t *testing.T) {
	d := multiDeployment(t)
	sync := runSim(t, d, &SyncAll{}, 128, 200, 5)
	async := runSim(t, d, &AsyncEach{}, 128, 200, 5)
	if async.Accuracy.Mean() >= sync.Accuracy.Mean() {
		t.Fatalf("async accuracy %v should be below sync %v", async.Accuracy.Mean(), sync.Accuracy.Mean())
	}
	// Async throughput headroom at rl-anchored load: fewer overdue than sync
	// is not guaranteed, but service must not collapse.
	if async.Served == 0 {
		t.Fatal("async served nothing")
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	d := singleDeployment(t)
	a := runSim(t, d, &SyncAll{}, 272, 120, 6)
	b := runSim(t, d, &SyncAll{}, 272, 120, 6)
	if a.Served != b.Served || a.Overdue != b.Overdue || a.Reward != b.Reward {
		t.Fatal("simulator not deterministic")
	}
}

func TestSimulatorMeasureFromSkipsWarmup(t *testing.T) {
	d := singleDeployment(t)
	p := &SyncAll{}
	rng := sim.NewRNG(7)
	arr, _ := workload.NewSineArrival(272, 500*d.Tau, rng.SplitNamed("arrival"))
	s := NewSimulator(d, p, workload.NewSource(arr), ensemble.NewAccuracyTable(zoo.NewPredictor(7), 2000))
	s.MeasureFrom = 60
	met, err := s.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	// Roughly half the arrivals measured.
	total := met.ArrivalRate.Total()
	if total <= 0 {
		t.Fatal("no measured arrivals")
	}
	full := runSim(t, d, &SyncAll{}, 272, 120, 7)
	if total >= full.ArrivalRate.Total() {
		t.Fatal("MeasureFrom did not skip warm-up arrivals")
	}
}

// badPolicy exercises dispatch validation paths.
type badPolicy struct{ act Action }

func (b *badPolicy) Name() string         { return "bad" }
func (b *badPolicy) Decide(*State) Action { return b.act }
func (b *badPolicy) Feedback(float64)     {}

func TestSimulatorRejectsInvalidActions(t *testing.T) {
	d := singleDeployment(t)
	cases := []Action{
		{Batch: 64, Models: nil},         // empty subset
		{Batch: 17, Models: []int{0}},    // non-candidate batch
		{Batch: 64, Models: []int{5}},    // model out of range
		{Batch: 64, Models: []int{0, 0}}, // repeated model
	}
	for _, act := range cases {
		rng := sim.NewRNG(8)
		arr, _ := workload.NewSineArrival(272, 280, rng)
		s := NewSimulator(d, &badPolicy{act: act}, workload.NewSource(arr), ensemble.NewAccuracyTable(zoo.NewPredictor(8), 1000))
		if _, err := s.Run(5); err == nil {
			t.Fatalf("action %+v should fail", act)
		}
	}
}

// TestAccuracyEmphasisShaping checks the κ reward shaping: κ≤1 leaves
// Equation 7 untouched, larger κ amplifies subset differences while
// preserving their ordering and the β semantics.
func TestAccuracyEmphasisShaping(t *testing.T) {
	base := multiDeployment(t)
	shaped := multiDeployment(t)
	shaped.AccuracyEmphasis = 8

	runOnce := func(d *Deployment, p Policy) float64 {
		rng := sim.NewRNG(77)
		arr, _ := workload.NewSineArrival(128, 500*d.Tau, rng.SplitNamed("arrival"))
		s := NewSimulator(d, p, workload.NewSource(arr), ensemble.NewAccuracyTable(zoo.NewPredictor(77), 2000))
		met, err := s.Run(60)
		if err != nil {
			t.Fatal(err)
		}
		return met.Reward
	}
	// Under shaping, the full-ensemble policy's reward advantage over the
	// async policy must grow (amplified accuracy gap).
	baseGap := runOnce(base, &SyncAll{}) - runOnce(base, &AsyncEach{})
	shapedGap := runOnce(shaped, &SyncAll{}) - runOnce(shaped, &AsyncEach{})
	if shapedGap <= baseGap {
		t.Fatalf("emphasis should widen the ensemble's reward gap: %v vs %v", shapedGap, baseGap)
	}
	// κ = 1 is the identity.
	ident := multiDeployment(t)
	ident.AccuracyEmphasis = 1
	if got, want := runOnce(ident, &SyncAll{}), runOnce(base, &SyncAll{}); got != want {
		t.Fatalf("kappa=1 changed the reward: %v vs %v", got, want)
	}
}

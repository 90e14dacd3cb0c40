package rafiki

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDeploySpecValidation covers the shape checks that must fire before any
// mutation: bad policy names, bad bounds, the RL model-count limit, and
// defaulting.
func TestDeploySpecValidation(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)

	cases := []struct {
		name string
		spec DeploymentSpec
		want string
	}{
		{"no models", DeploymentSpec{}, "at least one model"},
		{"bad policy", DeploymentSpec{Models: models, Policy: "round-robin"}, "unknown policy"},
		{"negative slo", DeploymentSpec{Models: models, SLO: -1}, "SLO"},
		{"nan slo", DeploymentSpec{Models: models, SLO: math.NaN()}, "SLO"},
		{"nan cache ttl", DeploymentSpec{Models: models, Cache: &CacheSpec{Enabled: true, TTLSeconds: math.NaN()}}, "cache TTL"},
		{"nan cache threshold", DeploymentSpec{Models: models, Cache: &CacheSpec{Enabled: true, AdmitThreshold: math.NaN()}}, "cache admit threshold"},
		{"nan cache half-life", DeploymentSpec{Models: models, Cache: &CacheSpec{Enabled: true, HalfLifeSeconds: math.NaN()}}, "cache half-life"},
		{"nan ttl on a disabled cache", DeploymentSpec{Models: models, Cache: &CacheSpec{TTLSeconds: math.NaN()}}, "cache TTL"},
		{"negative queue cap", DeploymentSpec{Models: models, QueueCap: -1}, "queue cap"},
		{"min above max", DeploymentSpec{Models: models, Replicas: ReplicaBounds{Min: 5, Max: 2}}, "max >= min"},
		{"max above cap", DeploymentSpec{Models: models, Replicas: ReplicaBounds{Min: 1, Max: maxReplicasPerModel + 1}}, "per-model cap"},
		{"negative min", DeploymentSpec{Models: models, Replicas: ReplicaBounds{Min: -2, Max: 4}}, "min >= 1"},
	}
	for _, tc := range cases {
		if _, err := sys.Deploy(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// The RL agent supports at most 8 models; validation must catch a bigger
	// spec before touching checkpoints or the cluster.
	nine := make([]ModelInstance, 9)
	for i := range nine {
		nine[i] = ModelInstance{Model: fmt.Sprintf("m%d", i)}
	}
	if _, err := sys.Deploy(DeploymentSpec{Models: nine, Policy: PolicyRL}); err == nil || !strings.Contains(err.Error(), "at most 8") {
		t.Fatalf("rl with 9 models err = %v", err)
	}

	// Defaults: a models-only spec reproduces the classic deployment.
	inf, err := sys.Deploy(DeploymentSpec{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	spec := inf.Spec()
	if spec.Policy != PolicyGreedy || spec.SLO != sys.opts.ServeSLO || spec.QueueCap != defaultQueueCap {
		t.Fatalf("defaulted spec = %+v", spec)
	}
	if spec.Replicas != (ReplicaBounds{Min: 1, Max: maxReplicasPerModel}) {
		t.Fatalf("defaulted bounds = %+v", spec.Replicas)
	}
	desc := inf.Describe()
	if desc.Status.Policy != "greedy-sync" || desc.Status.Autoscaling || desc.Status.RLSteps != 0 {
		t.Fatalf("status = %+v", desc.Status)
	}
}

// TestDeployRLPolicyLearnsOnline is the wall-clock RL acceptance test (run
// under -race): a deployment with Policy "rl" must serve concurrent queries
// through the actor-critic scheduler while the agent's step count advances —
// online learning on the live path, fed by the runtime's Equation 7 rewards.
func TestDeployRLPolicyLearnsOnline(t *testing.T) {
	sys, err := New(Options{Seed: 42, Workers: 2, NodeCapacity: 16, ServeSpeedup: 50})
	if err != nil {
		t.Fatal(err)
	}
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)

	inf, err := sys.Deploy(DeploymentSpec{Models: models, Policy: PolicyRL})
	if err != nil {
		t.Fatal(err)
	}
	if got := inf.Describe().Status.Policy; got != "rl" {
		t.Fatalf("live policy = %q, want rl", got)
	}

	const n = 60
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sys.Query(inf.ID, []byte(fmt.Sprintf("rl_photo_%d_sushi.jpg", i)))
			if err != nil {
				errs <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			if res.Label == "" {
				errs <- fmt.Errorf("query %d: empty label", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	steps := inf.RLSteps()
	if steps == 0 {
		t.Fatal("agent took no decisions while serving")
	}
	// More traffic must advance the agent further: learning is live, not a
	// one-shot warm-up.
	if _, err := sys.Query(inf.ID, []byte("one_more_ramen.jpg")); err != nil {
		t.Fatal(err)
	}
	if after := inf.RLSteps(); after <= steps {
		t.Fatalf("step count stuck at %d after more traffic (was %d)", after, steps)
	}
	// The scheduler's answers stay deterministic per payload even though the
	// policy is learning (predictions are payload-pure, DESIGN.md §2).
	a, err := sys.Query(inf.ID, []byte("stable_salad.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Query(inf.ID, []byte("stable_salad.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Label != b.Label {
		t.Fatalf("rl-scheduled answers unstable: %q vs %q", a.Label, b.Label)
	}
	if err := sys.StopInference(inf.ID); err != nil {
		t.Fatal(err)
	}
}

// TestReconcileSpec drives a live deployment through spec changes: validation
// failures must mutate nothing, and a policy swap + SLO + queue-cap +
// replica-bound change must land on the running job without dropping
// in-flight queries.
func TestReconcileSpec(t *testing.T) {
	sys, err := New(Options{Seed: 42, Workers: 2, NodeCapacity: 32, ServeSpeedup: 50})
	if err != nil {
		t.Fatal(err)
	}
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf, err := sys.Deploy(DeploymentSpec{Models: models})
	if err != nil {
		t.Fatal(err)
	}

	// Unknown id.
	if _, err := sys.ReconcileInference("ghost", DeploymentSpec{}); !errors.Is(err, ErrUnknownInferenceJob) {
		t.Fatalf("reconcile unknown job err = %v", err)
	}
	// Validation failures leave the spec untouched.
	before := inf.Spec()
	if _, err := sys.ReconcileInference(inf.ID, DeploymentSpec{Policy: "warp"}); err == nil {
		t.Fatal("bad policy should fail validation")
	}
	if _, err := sys.ReconcileInference(inf.ID, DeploymentSpec{Replicas: ReplicaBounds{Min: 9, Max: 3}}); err == nil {
		t.Fatal("inverted bounds should fail validation")
	}
	if after := inf.Spec(); after.Policy != before.Policy || after.SLO != before.SLO ||
		after.QueueCap != before.QueueCap || after.Replicas != before.Replicas {
		t.Fatalf("failed reconcile mutated the spec: %+v -> %+v", before, after)
	}
	// The model set is immutable.
	other := append([]ModelInstance(nil), models...)
	other[0].Model = "ghostnet"
	if _, err := sys.ReconcileInference(inf.ID, DeploymentSpec{Models: other}); err == nil || !strings.Contains(err.Error(), "immutable") {
		t.Fatalf("model change err = %v", err)
	}

	// Live reconcile under load: queries in flight while the policy swaps to
	// RL and the bounds force a scale-up.
	const n = 40
	var wg sync.WaitGroup
	qerrs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := sys.Query(inf.ID, []byte(fmt.Sprintf("reconcile_%d_burger.jpg", i))); err != nil {
				qerrs <- fmt.Errorf("query %d: %w", i, err)
			}
		}(i)
	}
	desc, err := sys.ReconcileInference(inf.ID, DeploymentSpec{
		Policy:   PolicyRL,
		SLO:      0.5,
		QueueCap: 512,
		Replicas: ReplicaBounds{Min: 2, Max: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(qerrs)
	for err := range qerrs {
		t.Fatal(err)
	}
	if desc.Spec.Policy != PolicyRL || desc.Spec.SLO != 0.5 || desc.Spec.QueueCap != 512 {
		t.Fatalf("reconciled spec = %+v", desc.Spec)
	}
	if desc.Status.Policy != "rl" {
		t.Fatalf("live policy = %q", desc.Status.Policy)
	}
	for m, nrep := range desc.Status.Replicas {
		if nrep != 2 {
			t.Fatalf("model %s = %d replicas after bounds {2,4}, want 2", m, nrep)
		}
	}
	// The new policy is really serving (and learning) post-swap.
	if _, err := sys.Query(inf.ID, []byte("post_swap_pizza.jpg")); err != nil {
		t.Fatal(err)
	}
	if inf.RLSteps() == 0 {
		t.Fatal("swapped-in RL agent took no decisions")
	}
	// Manual scaling respects the reconciled ceiling.
	if err := sys.ScaleInference(inf.ID, "", 5); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("scale above Max err = %v", err)
	}
	// Swap back to greedy: the agent is detached and the job keeps serving.
	desc, err = sys.ReconcileInference(inf.ID, DeploymentSpec{Policy: PolicyGreedy, Replicas: ReplicaBounds{Min: 1, Max: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if desc.Status.Policy != "greedy-sync" || desc.Status.RLSteps != 0 {
		t.Fatalf("post-swap status = %+v", desc.Status)
	}
	if _, err := sys.Query(inf.ID, []byte("back_to_greedy_ramen.jpg")); err != nil {
		t.Fatal(err)
	}
}

// TestAutoscaleTarget pins the pure proportional scaling rule: the scale-up
// step grows with the model's standing backlog (one replica per high-water
// multiple, plus one while the queue is still growing) instead of a fixed ±1.
func TestAutoscaleTarget(t *testing.T) {
	hw := float64(autoscaleHighWater)
	cases := []struct {
		cur, min, max          int
		backlog, growth, drain float64
		want                   int
	}{
		{1, 1, 4, hw, 0, 0, 2},      // one high-water of backlog: step up 1
		{1, 1, 8, 4 * hw, 0, 0, 5},  // proportional: 4 high-waters jump 4
		{1, 1, 8, 2 * hw, 12, 0, 4}, // growing queue adds one more step
		{1, 1, 3, 6 * hw, 0, 0, 3},  // big step clamps at max
		{4, 1, 4, hw, 0, 0, 4},      // at max: hold
		{2, 1, 4, 10, 0, 5, 2},      // moderate load: hold
		{3, 1, 4, 0, 0, 0, 2},       // idle: step down one
		{1, 1, 4, 0, 0, 0, 1},       // at min: hold
		{2, 2, 4, 0, 0, 0, 2},       // min floor respected
		{2, 1, 4, 0, 0, 3.5, 2},     // empty but draining: hold
		{2, 1, 4, 0, 1.5, 0, 2},     // empty but arrivals incoming: hold
		{3, 3, 3, hw + 9, 0, 0, 3},  // degenerate bounds: hold
		{1, 2, 4, 10, 0, 5, 2},      // below floor: snap to min
		{6, 1, 4, hw, 0, 0, 4},      // above ceiling: snap to max
	}
	for i, tc := range cases {
		if got := autoscaleTarget(tc.cur, tc.min, tc.max, tc.backlog, tc.growth, tc.drain); got != tc.want {
			t.Fatalf("case %d: autoscaleTarget(%d,%d,%d,%v,%v,%v) = %d, want %d",
				i, tc.cur, tc.min, tc.max, tc.backlog, tc.growth, tc.drain, got, tc.want)
		}
	}
}

// TestAutoscaleGrowsUnderLoad floods an autoscaling deployment (run under
// -race): standing queue backlog must grow the replica pools inside the spec
// bounds without losing queries.
func TestAutoscaleGrowsUnderLoad(t *testing.T) {
	sys, err := New(Options{Seed: 42, Workers: 2, NodeCapacity: 32, ServeSpeedup: 50})
	if err != nil {
		t.Fatal(err)
	}
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf, err := sys.Deploy(DeploymentSpec{
		Models:    models,
		Replicas:  ReplicaBounds{Min: 1, Max: 4},
		Autoscale: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inf.Describe().Status.Autoscaling {
		t.Fatal("autoscale loop not running")
	}

	// Producers keep a standing backlog until the autoscaler reacts. Each
	// blocks on its query, so the backlog depth is bounded by the producer
	// count — it must sit well above autoscaleHighWater.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 64; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Full queues are expected at this offered load; only real
				// failures matter.
				_, err := sys.Query(inf.ID, []byte(fmt.Sprintf("flood_%d_%d_pizza.jpg", p, i)))
				if err != nil && !strings.Contains(err.Error(), "queue full") {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	grown := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range inf.ReplicaCounts() {
			if n >= 2 {
				grown = true
			}
		}
		if grown {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !grown {
		t.Fatalf("autoscaler never scaled up; replicas = %v", inf.ReplicaCounts())
	}
	for _, n := range inf.ReplicaCounts() {
		if n > 4 {
			t.Fatalf("autoscaler exceeded Max: %v", inf.ReplicaCounts())
		}
	}

	// Toggling autoscale off through a reconcile stops the loop.
	desc, err := sys.ReconcileInference(inf.ID, DeploymentSpec{Replicas: ReplicaBounds{Min: 1, Max: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if desc.Status.Autoscaling {
		t.Fatal("reconcile with autoscale=false left the loop running")
	}
	if err := sys.StopInference(inf.ID); err != nil {
		t.Fatal(err)
	}
}

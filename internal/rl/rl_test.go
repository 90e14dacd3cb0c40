package rl

import (
	"math"
	"testing"

	"rafiki/internal/ensemble"
	"rafiki/internal/infer"
	"rafiki/internal/sim"
	"rafiki/internal/workload"
	"rafiki/internal/zoo"
)

var testB = []int{16, 32, 48, 64}

func TestNewAgentValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := NewAgent(DefaultConfig(), 0, testB, rng); err == nil {
		t.Fatal("zero models should error")
	}
	if _, err := NewAgent(DefaultConfig(), 9, testB, rng); err == nil {
		t.Fatal("too many models should error")
	}
	if _, err := NewAgent(DefaultConfig(), 2, nil, rng); err == nil {
		t.Fatal("no batches should error")
	}
}

func TestActionSpaceSize(t *testing.T) {
	rng := sim.NewRNG(2)
	// Paper: (2^|M|−1)·|B| actions; we add one explicit wait.
	a3, _ := NewAgent(DefaultConfig(), 3, testB, rng)
	if got := a3.ActionSpace(); got != (1<<3-1)*4+1 {
		t.Fatalf("3-model action space = %d, want 29", got)
	}
	a1, _ := NewAgent(DefaultConfig(), 1, testB, rng)
	if got := a1.ActionSpace(); got != 4+1 {
		t.Fatalf("1-model action space = %d, want 5", got)
	}
}

func mkState(models int, free []bool, busy []float64, qlen int, waits []float64) *infer.State {
	lat := make([][]float64, models)
	for m := range lat {
		lat[m] = []float64{0.07, 0.125, 0.18, 0.235}
	}
	return &infer.State{
		Now: 0, QueueLen: qlen, Waits: waits,
		FreeModels: free, BusyLeft: busy,
		Tau: 0.56, Batches: testB, LatencyTable: lat,
	}
}

func TestDecideNeverSelectsBusyModels(t *testing.T) {
	rng := sim.NewRNG(3)
	agent, _ := NewAgent(DefaultConfig(), 3, testB, rng)
	s := mkState(3, []bool{true, false, true}, []float64{0, 0.2, 0}, 100, []float64{0.1})
	for i := 0; i < 200; i++ {
		act := agent.Decide(s)
		agent.Feedback(0.1)
		if act.Wait {
			continue
		}
		for _, m := range act.Models {
			if m == 1 {
				t.Fatal("selected busy model")
			}
		}
		if act.Batch != 16 && act.Batch != 32 && act.Batch != 48 && act.Batch != 64 {
			t.Fatalf("invalid batch %d", act.Batch)
		}
	}
}

func TestFeatureDimAndPadding(t *testing.T) {
	rng := sim.NewRNG(4)
	agent, _ := NewAgent(DefaultConfig(), 2, testB, rng)
	// Short queue: waits padded with zeros; long waits truncated.
	s := mkState(2, []bool{true, true}, []float64{0, 0}, 2, []float64{0.3, 0.2})
	x := agent.features(s)
	if len(x) != agent.featureDim() {
		t.Fatalf("feature dim %d != declared %d", len(x), agent.featureDim())
	}
	if x[0] != 0.3/0.56 || x[2] != 0 {
		t.Fatalf("wait features wrong: %v", x[:4])
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite feature")
		}
	}
}

func TestGreedyModeIsDeterministic(t *testing.T) {
	rng := sim.NewRNG(5)
	agent, _ := NewAgent(DefaultConfig(), 2, testB, rng)
	agent.SetGreedy(true)
	s := mkState(2, []bool{true, true}, []float64{0, 0}, 50, []float64{0.1})
	first := agent.Decide(s)
	for i := 0; i < 20; i++ {
		act := agent.Decide(s)
		if act.Wait != first.Wait || act.Batch != first.Batch {
			t.Fatal("greedy mode should be deterministic for a fixed state")
		}
	}
}

func TestEntropyDecays(t *testing.T) {
	rng := sim.NewRNG(6)
	agent, _ := NewAgent(DefaultConfig(), 1, testB, rng)
	start := agent.entropyCoef()
	agent.steps = 100000
	end := agent.entropyCoef()
	if end >= start {
		t.Fatalf("entropy should decay: %v -> %v", start, end)
	}
	if end < agent.Cfg.EntropyMin {
		t.Fatalf("entropy fell below floor: %v", end)
	}
}

// TestAgentLearnsBanditPreference: a degenerate scheduling problem where one
// action has strictly higher reward; the policy should concentrate on it.
func TestAgentLearnsBanditPreference(t *testing.T) {
	rng := sim.NewRNG(7)
	cfg := DefaultConfig()
	cfg.LR = 3e-3
	agent, _ := NewAgent(cfg, 1, testB, rng)
	s := mkState(1, []bool{true}, []float64{0}, 200, []float64{0.01})
	// Reward: batch 64 pays 1, everything else pays 0.
	for i := 0; i < 3000; i++ {
		act := agent.Decide(s)
		r := 0.0
		if !act.Wait && act.Batch == 64 {
			r = 1
		}
		agent.Feedback(r)
	}
	agent.SetGreedy(true)
	act := agent.Decide(s)
	if act.Wait || act.Batch != 64 {
		t.Fatalf("agent failed to learn the dominant action: %+v", act)
	}
}

func runServing(t *testing.T, d *infer.Deployment, p infer.Policy, anchor, warm, dur float64, seed int64) *infer.Metrics {
	t.Helper()
	rng := sim.NewRNG(seed)
	arr, err := workload.NewSineArrival(anchor, 500*d.Tau, rng.SplitNamed("arrival"))
	if err != nil {
		t.Fatal(err)
	}
	s := infer.NewSimulator(d, p, workload.NewSource(arr), ensemble.NewAccuracyTable(zoo.NewPredictor(seed), 4000))
	s.MeasureFrom = warm
	met, err := s.Run(warm + dur)
	if err != nil {
		t.Fatal(err)
	}
	return met
}

// TestRLBeatsGreedyAtLowRate is the Figure 13 headline: with the arrival
// anchored at the minimum throughput, the trained agent eliminates the
// stragglers greedy leaves overdue.
func TestRLBeatsGreedyAtLowRate(t *testing.T) {
	d, err := infer.NewDeployment([]string{"inception_v3"}, testB, 0.56, 1)
	if err != nil {
		t.Fatal(err)
	}
	greedy := runServing(t, d, &infer.SyncAll{}, 228, 280, 280, 11)
	agent, err := NewOnline(DefaultConfig(), 1, testB, sim.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	rl := runServing(t, d, agent, 228, 280*3, 280, 11)
	if greedy.Overdue == 0 {
		t.Fatal("test premise broken: greedy should leave stragglers")
	}
	if rl.Overdue*2 > greedy.Overdue {
		t.Fatalf("RL overdue %d should be well under greedy's %d", rl.Overdue, greedy.Overdue)
	}
	if agent.Steps() == 0 {
		t.Fatal("agent took no decisions")
	}
	agent.Flush() // exercise the terminal update path
}

// TestRLTradesAccuracyForLatency is the Figure 14 headline: against the
// synchronous full-ensemble baseline at the minimum-throughput anchor, the
// agent eliminates almost all overdue requests at a modest accuracy cost.
func TestRLTradesAccuracyForLatency(t *testing.T) {
	models := []string{"inception_v3", "inception_v4", "inception_resnet_v2"}
	d, err := infer.NewDeployment(models, testB, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mkSim := func(p infer.Policy, warm float64, seed int64) *infer.Metrics {
		rng := sim.NewRNG(seed)
		arr, _ := workload.NewSineArrival(128, 500*d.Tau, rng.SplitNamed("arrival"))
		s := infer.NewSimulator(d, p, workload.NewSource(arr), ensemble.NewAccuracyTable(zoo.NewPredictor(seed), 4000))
		s.Predictor = zoo.NewPredictor(seed + 1)
		s.MeasureFrom = warm
		met, err := s.Run(warm + 400)
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	sync := mkSim(&infer.SyncAll{}, 400, 13)
	cfg := DefaultConfig()
	cfg.Gamma = 0.98
	agent, _ := NewOnline(cfg, 3, testB, sim.NewRNG(14))
	rl := mkSim(agent, 1500, 13)

	if sync.Overdue == 0 {
		t.Fatal("test premise broken: sync should be overwhelmed at bursts")
	}
	if rl.Overdue*5 > sync.Overdue {
		t.Fatalf("RL overdue %d should be far below sync's %d", rl.Overdue, sync.Overdue)
	}
	// Accuracy: at most sync's (full ensemble), at least near the worst
	// single model (it still ensembles at low rate).
	if rl.Accuracy.Mean() > sync.Accuracy.Mean()+0.005 {
		t.Fatalf("RL accuracy %v cannot exceed the full ensemble %v", rl.Accuracy.Mean(), sync.Accuracy.Mean())
	}
	if rl.Accuracy.Mean() < 0.77 {
		t.Fatalf("RL accuracy %v collapsed below single-model levels", rl.Accuracy.Mean())
	}
}

// TestSemiMDPDiscounting verifies the time-aware TD target: with a positive
// next-state value, a longer gap discounts the bootstrap more, so the
// critic's update target shrinks with dt.
func TestSemiMDPDiscounting(t *testing.T) {
	mk := func() *Agent {
		a, err := NewAgent(DefaultConfig(), 1, testB, sim.NewRNG(60))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// Train two identical agents on the same transition differing only in
	// elapsed time; the one with the longer gap must move its value toward
	// a smaller target (same reward, more-discounted bootstrap).
	sA := mkState(1, []bool{true}, []float64{0}, 50, []float64{0.1})
	sB := mkState(1, []bool{true}, []float64{0}, 10, []float64{0.05})
	sB.Now = 0 // decide() reads Now from state

	value := func(gapSeconds float64) float64 {
		a := mk()
		x := a.features(sA)
		before := a.critic.Forward(x)[0]
		_ = before
		// One decide to set pending, reward, then a second decide at +gap.
		a.Decide(sA)
		a.Feedback(0.5)
		next := mkState(1, []bool{true}, []float64{0}, 10, []float64{0.05})
		next.Now = gapSeconds
		a.Decide(next)
		return a.critic.Forward(x)[0]
	}
	vShort := value(0.02)
	vLong := value(5.0)
	if vShort <= vLong {
		t.Fatalf("longer gaps should discount the bootstrap more: short %v vs long %v", vShort, vLong)
	}
}

// TestCriticLRDefault checks the faster-critic default wiring.
func TestCriticLRDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CriticLR = 0
	a, err := NewAgent(cfg, 1, testB, sim.NewRNG(61))
	if err != nil {
		t.Fatal(err)
	}
	if a.criticOpt.LR != 5*a.actorOpt.LR {
		t.Fatalf("critic LR = %v, want 5x actor %v", a.criticOpt.LR, a.actorOpt.LR)
	}
	cfg.CriticLR = 1e-2
	b, _ := NewAgent(cfg, 1, testB, sim.NewRNG(62))
	if b.criticOpt.LR != 1e-2 {
		t.Fatalf("explicit critic LR ignored: %v", b.criticOpt.LR)
	}
}

// TestOnlineSanitizesWallClockStates drives the wall-clock adapter with the
// states only a live runtime produces — +Inf busy-left for a model whose
// replicas are all down, and pathological queue waits: actions must stay
// valid (no NaN-poisoned policy) and the step counter must advance.
func TestOnlineSanitizesWallClockStates(t *testing.T) {
	batches := []int{1, 2, 4, 8, 16}
	o, err := NewOnline(DefaultConfig(), 3, batches, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "rl" {
		t.Fatalf("name = %q", o.Name())
	}
	lat := make([][]float64, 3)
	for m := range lat {
		lat[m] = make([]float64, len(batches))
		for b := range batches {
			lat[m][b] = 0.05 * float64(batches[b])
		}
	}
	for step := 0; step < 200; step++ {
		s := &infer.State{
			Now:          float64(step) * 0.01,
			QueueLen:     1 + step%40,
			Waits:        []float64{math.Inf(1), 1e9, 0.1},
			FreeModels:   []bool{true, step%2 == 0, false},
			BusyLeft:     []float64{0, 0.2, math.Inf(1)},
			Tau:          0.25,
			Batches:      batches,
			LatencyTable: lat,
		}
		act := o.Decide(s)
		if !act.Wait {
			if len(act.Models) == 0 {
				t.Fatalf("step %d: dispatch with no models", step)
			}
			for _, m := range act.Models {
				if !s.FreeModels[m] {
					t.Fatalf("step %d: dispatched busy model %d", step, m)
				}
			}
		}
		o.Feedback(0.5)
	}
	if o.Steps() != 200 {
		t.Fatalf("steps = %d, want 200", o.Steps())
	}
	o.Flush()
	// The agent's weights must have stayed finite through the Inf states.
	s := &infer.State{
		QueueLen:     4,
		Waits:        []float64{0.01},
		FreeModels:   []bool{true, true, true},
		BusyLeft:     []float64{0, 0, 0},
		Tau:          0.25,
		Batches:      batches,
		LatencyTable: lat,
	}
	if act := o.Decide(s); !act.Wait && len(act.Models) == 0 {
		t.Fatalf("post-training decide invalid: %+v", act)
	}
}

// TestOnlineLoneRequestResolves: the agent cannot name the instant its
// answer changes, so each of its waits is bounded. One request and no later
// arrival, over a virtual-time runtime, still resolves within 10τ. One model
// and one batch size leave the agent two actions, so about half the seeds
// answer the request with a wait first.
func TestOnlineLoneRequestResolves(t *testing.T) {
	d, err := infer.NewDeployment([]string{"inception_v3"}, []int{1}, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	echo := func(ids []uint64, payloads []any, _ []string, _ [][]any) ([]any, error) {
		return append([]any(nil), payloads...), nil
	}
	waited := 0
	for seed := int64(1); seed <= 10; seed++ {
		o, err := NewOnline(DefaultConfig(), len(d.ModelNames), d.Batches, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		loop := sim.NewEventLoop()
		rt, err := infer.NewRuntime(d, o, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200), echo,
			infer.RuntimeConfig{Timeline: loop})
		if err != nil {
			t.Fatal(err)
		}
		const at = 0.01
		loop.Schedule(at, func() {
			if _, err := rt.Submit("x"); err != nil {
				t.Error(err)
			}
		})
		loop.RunUntil(at + 10*d.Tau)
		st := rt.Stats()
		rt.Close()
		if st.Served != 1 {
			t.Fatalf("seed %d: served %d after 10τ (%d decisions), want the lone request", seed, st.Served, st.Decisions)
		}
		if st.Decisions > 1 {
			waited++
		}
	}
	if waited == 0 {
		t.Fatal("no agent waited: the test no longer exercises a bounded wait")
	}
}

// TestOnlineBurstThenSilenceResolves: a burst of 300 requests, then no
// arrival at all, over a virtual-time runtime. Every wait the agent takes
// while the backlog drains must name the instant it ends, or nothing wakes
// the idle runtime again; so every future resolves well before the horizon.
// The raw agent, whose waits name no instant, stalls on the same burst,
// which keeps the test honest.
func TestOnlineBurstThenSilenceResolves(t *testing.T) {
	d, err := infer.NewDeployment([]string{"inception_v3"}, []int{16}, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	echo := func(ids []uint64, payloads []any, _ []string, _ [][]any) ([]any, error) {
		return append([]any(nil), payloads...), nil
	}
	const burst, at = 300, 0.01
	// Twice the burst's serial service time, plus 10τ of waits.
	horizon := at + 2*float64(burst/16+1)*d.LatencyTable()[0][0] + 10*d.Tau
	serve := func(p infer.Policy) (infer.Stats, []infer.Future) {
		loop := sim.NewEventLoop()
		rt, err := infer.NewRuntime(d, p, ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200), echo,
			infer.RuntimeConfig{Timeline: loop})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		futs := make([]infer.Future, 0, burst)
		loop.Schedule(at, func() {
			for i := 0; i < burst; i++ {
				f, err := rt.Submit(i)
				if err != nil {
					t.Fatal(err)
				}
				futs = append(futs, f)
			}
		})
		loop.RunUntil(horizon)
		return rt.Stats(), futs
	}
	stalled := 0
	for seed := int64(1); seed <= 4; seed++ {
		o, err := NewOnline(DefaultConfig(), 1, d.Batches, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		st, futs := serve(o)
		if st.Served != burst || st.QueueLen != 0 {
			t.Fatalf("seed %d: served %d, %d still queued at %.2fs (%d decisions), want all %d",
				seed, st.Served, st.QueueLen, horizon, st.Decisions, burst)
		}
		for i, f := range futs {
			if res, err := f.Wait(); err != nil || res != i {
				t.Fatalf("seed %d: request %d answered %v, %v", seed, i, res, err)
			}
		}
		raw, err := NewAgent(DefaultConfig(), 1, d.Batches, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := serve(raw); st.QueueLen > 0 {
			stalled++
		}
	}
	if stalled == 0 {
		t.Fatal("the raw agent never stalled: the burst no longer exercises an unbounded wait")
	}
}

// BenchmarkAgentUpdate times one TD learning step of the three-model agent
// (critic and actor forward, backward, clip and Adam step) between two
// fixed states, with its allocations.
func BenchmarkAgentUpdate(b *testing.B) {
	agent, err := NewAgent(DefaultConfig(), 3, testB, sim.NewRNG(7))
	if err != nil {
		b.Fatal(err)
	}
	x := agent.features(mkState(3, []bool{true, true, true}, []float64{0, 0, 0}, 40, []float64{0.2, 0.1, 0.05}))
	nextX := agent.features(mkState(3, []bool{false, true, true}, []float64{0.3, 0, 0}, 8, []float64{0.02}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.update(x, i%agent.ActionSpace(), 0.5, nextX, 0.05, false)
	}
}

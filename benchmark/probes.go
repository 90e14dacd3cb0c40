package main

import (
	"fmt"
	"math/rand"
	"time"

	"rafiki/internal/advisor"
	"rafiki/internal/ensemble"
	"rafiki/internal/gp"
	"rafiki/internal/nn"
	"rafiki/internal/predcache"
	"rafiki/internal/ps"
	"rafiki/internal/sim"
	"rafiki/internal/surrogate"
	"rafiki/internal/tune"
)

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink float64

// timeEach runs f n times under one span and returns the mean cost of a call
// in nanoseconds.
func timeEach(t *tracer, name string, n int, f func(i int)) float64 {
	id := t.begin(name, 0, 0)
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(start)
	t.end(id)
	return float64(d) / float64(n)
}

// hostSpeed times two fixed kernels that touch nothing of the system under
// test — an arithmetic loop and a dependent walk through 8 MB — so a reader
// comparing two runs can tell a slower machine from slower code: on a shared
// host the same binary swings by tens of percent within the hour.
func hostSpeed() (spinMs, memwalkMs float64) {
	const steps = 1 << 22
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4*steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += float64(x & 1)
	spinMs = since(t0)

	// A single cycle through every slot (Sattolo), so each load depends on
	// the one before it and the prefetcher cannot help.
	next := make([]uint32, 1<<21)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	t0 = time.Now()
	at := uint32(0)
	for i := 0; i < steps/2; i++ {
		at = next[at]
	}
	probeSink += float64(at & 1)
	return spinMs, since(t0)
}

// runProbes times calls straight into the layers' public functions, with
// inputs drawn from seed. These are the per-layer numbers no workload can
// isolate from outside; each probe is one span in the trace.
func runProbes(t *tracer, seed int64, m map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	id := t.begin("probe.host", 0, 0)
	m["host.spin_ms"], m["host.memwalk_ms"] = hostSpeed()
	t.end(id)

	// predcache: the hit path on a resident key, the miss path on keys seen
	// once (cold: computed, not stored), with a compute that costs nothing.
	cache := predcache.New(predcache.Config{})
	compute := func() (any, error) { return 1, nil }
	const cacheKeys = 512
	inputs := make([][]byte, cacheKeys)
	for k := range inputs {
		inputs[k] = payloadFor(uint64(k), "pizza")
		for touch := 0; touch < 3; touch++ {
			if _, _, err := cache.GetOrCompute(uint64(k), inputs[k], compute); err != nil {
				return fmt.Errorf("predcache probe: %w", err)
			}
		}
	}
	hits := 0
	m["predcache.lookup_ns_hit"] = (timeEach(t, "probe.predcache.hit", 200000, func(i int) {
		_, out, _ := cache.GetOrCompute(uint64(i%cacheKeys), inputs[i%cacheKeys], compute)
		if out == predcache.Hit {
			hits++
		}
	}))
	if hits < 190000 {
		return fmt.Errorf("predcache probe: only %d of 200000 lookups on resident keys hit", hits)
	}
	cold := payloadFor(1, "ramen")
	m["predcache.lookup_ns_miss"] = (timeEach(t, "probe.predcache.miss", 200000, func(i int) {
		_, _, _ = cache.GetOrCompute(uint64(1<<32+i), cold, compute)
	}))

	// nn: one forward pass of the serving networks' shape.
	mlp := nn.NewMLP([]int{stubFeatures, stubHidden, len(foodClasses)}, nn.ReLU, nn.Linear, sim.NewRNG(seed))
	x := make([]float64, stubFeatures)
	for i := range x {
		x[i] = rng.Float64()
	}
	m["nn.forward_ns_per_sample"] = (timeEach(t, "probe.nn.forward", 200000, func(int) {
		probeSink += mlp.Forward(x)[0]
	}))

	// ensemble: one three-model vote.
	preds := make([][]int, 1024)
	for i := range preds {
		preds[i] = []int{rng.Intn(8), rng.Intn(8), rng.Intn(8)}
	}
	accs := []float64{0.93, 0.94, 0.945}
	m["ensemble.vote_ns_per_op"] = (timeEach(t, "probe.ensemble.vote", 200000, func(i int) {
		v, _ := ensemble.Vote(preds[i%len(preds)], accs)
		probeSink += float64(v)
	}))

	// gp: fit and predict at the observation count a study ends with.
	space, err := advisor.CIFAR10ConvNetSpace()
	if err != nil {
		return err
	}
	dim, err := space.Dim()
	if err != nil {
		return err
	}
	g := gp.New(gp.RBF{LengthScale: 0.5, SignalVar: 1}, 1e-4)
	point := func() []float64 {
		p := make([]float64, dim)
		for i := range p {
			p[i] = rng.Float64()
		}
		return p
	}
	for i := 0; i < studyTrials; i++ {
		g.Add(point(), 0.8+0.1*rng.Float64())
	}
	var fitErr error
	m["gp.fit_ms_n150"] = (timeEach(t, "probe.gp.fit", 3, func(int) {
		if _, err := g.FitHyperparams(); err != nil {
			fitErr = err
		}
	})) / 1e6
	if fitErr != nil {
		return fmt.Errorf("gp probe: %w", fitErr)
	}
	q := point()
	m["gp.predict_us_n150"] = (timeEach(t, "probe.gp.predict", 2000, func(int) {
		mean, _, _ := g.Predict(q)
		probeSink += mean
	})) / 1e3

	// advisor: a whole study's worth of Next/Collect on the Bayesian advisor.
	adv := advisor.NewBayesAdvisor(space, sim.NewRNG(seed).SplitNamed("advisor"))
	var nextMs []float64
	var collect time.Duration
	id = t.begin("probe.advisor.study", 0, 0)
	for i := 0; i < studyTrials; i++ {
		t0 := time.Now()
		trial, err := adv.Next("probe")
		if err != nil {
			return fmt.Errorf("advisor probe: %w", err)
		}
		nextMs = append(nextMs, since(t0))
		t0 = time.Now()
		adv.Collect("probe", trial, 0.8+0.1*rng.Float64())
		collect += time.Since(t0)
	}
	t.end(id)
	m["advisor.next_ms_p50"] = median(nextMs)
	m["advisor.collect_us"] = float64(collect) / studyTrials / 1e3

	// ps: checkpoints of the architecture-tuning shape.
	server := ps.New(16, nil)
	ckpt := func(i int) *ps.Checkpoint {
		return &ps.Checkpoint{Model: "probe", TrialID: fmt.Sprint("t", i), Accuracy: 0.8 + rng.Float64()/10,
			Layers: tune.ArchLayers(8, 0.9, 0.9), Owner: "probe", Public: true}
	}
	const psKeys = 256
	var psErr error
	m["ps.put_us"] = (timeEach(t, "probe.ps.put", psKeys, func(i int) {
		if err := server.Put(fmt.Sprint("probe/", i), ckpt(i)); err != nil {
			psErr = err
		}
	})) / 1e3
	m["ps.get_us"] = (timeEach(t, "probe.ps.get", 20000, func(i int) {
		if _, _, err := server.Get(fmt.Sprint("probe/", i%psKeys)); err != nil {
			psErr = err
		}
	})) / 1e3
	if psErr != nil {
		return fmt.Errorf("ps probe: %w", psErr)
	}
	sigs := []string{"conv1:3x3x32", "conv4:3x3x32", "fc:256x10"}
	m["ps.fetch_matching_us"] = (timeEach(t, "probe.ps.fetch_matching", 50, func(int) {
		probeSink += float64(len(server.FetchMatching(sigs)))
	})) / 1e3

	// surrogate: one simulated training epoch.
	trainer := surrogate.NewTrainer(surrogate.DefaultConfig())
	trial, err := space.Sample("probe", sim.NewRNG(seed).SplitNamed("trial"))
	if err != nil {
		return err
	}
	hyper, err := surrogate.FromTrial(trial)
	if err != nil {
		return err
	}
	epochs := 0
	id = t.begin("probe.surrogate.epochs", 0, 0)
	t0 := time.Now()
	for s := 0; s < 200; s++ {
		session := trainer.NewSession(hyper, nil, sim.NewRNG(seed+int64(s)))
		for done := false; !done; epochs++ {
			_, done = session.Step()
		}
	}
	m["surrogate.epoch_us"] = float64(time.Since(t0)) / float64(epochs) / 1e3
	t.end(id)

	// tune: one worker running a CoStudy with the random advisor, so the
	// trial cost is the protocol's (request, per-epoch report, checkpoint,
	// finish) and not the advisor's.
	master, err := tune.NewMaster(tune.DefaultConfig("probe", true),
		advisor.NewRandomAdvisor(space, sim.NewRNG(seed).SplitNamed("random")), server, sim.NewRNG(seed).SplitNamed("master"))
	if err != nil {
		return err
	}
	worker := tune.NewWorker("probe-worker", master, trainer, server, sim.NewRNG(seed).SplitNamed("worker"))
	var trialMs []float64
	id = t.begin("probe.tune.study", 0, 0)
	for more := true; more; {
		t0 := time.Now()
		if more, err = worker.RunOneTrial(); err != nil {
			return fmt.Errorf("tune probe: %w", err)
		}
		if more {
			trialMs = append(trialMs, since(t0))
		}
	}
	t.end(id)
	m["tune.trial_us_p50"] = 1e3 * median(trialMs)
	early, warm := 0, 0
	history := master.History()
	for _, rec := range history {
		if rec.Epochs < trainer.Cfg.MaxEpochs {
			early++
		}
		if rec.WarmStart {
			warm++
		}
	}
	m["tune.early_stop_share"] = float64(early) / float64(len(history))
	m["tune.warm_start_share"] = float64(warm) / float64(len(history))
	return nil
}

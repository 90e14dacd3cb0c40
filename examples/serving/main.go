// Serving demonstrates the inference service's latency/accuracy trade-off
// (Section 5): it deploys the paper's three-ConvNet ensemble, drives it with
// the sine-modulated workload anchored at the ensemble's minimum throughput,
// and compares the greedy-sync baseline (always the full ensemble) against
// the actor-critic RL scheduler, which drops models under load to keep
// requests inside the latency SLO.
//
// Both halves run the same serving runtime: first the Simulator harness
// drives it over a virtual-time event loop to replay the paper's
// experiments, then it serves real concurrent clients on the wall clock —
// goroutines hammering one deployment through per-request futures, batched
// by the same policy. The RL scheduler is rl.Online, the policy a "policy:
// rl" deployment installs.
//
// The later acts move up to the SDK's declarative deployment API: a
// DeploymentSpec deploys the trained ensemble under the RL policy with
// autoscaling replica bounds, and a reconcile swaps the policy on the live
// deployment without dropping queued queries. The finale shows the
// prediction cache (DESIGN.md §11): it admits a hot input after repeat touches,
// serves it without touching the runtime, and drops it the moment a live
// policy swap supersedes the ensemble that computed it.
//
// Run with: go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"rafiki"
	"rafiki/internal/ensemble"
	"rafiki/internal/infer"
	"rafiki/internal/rl"
	"rafiki/internal/sim"
	"rafiki/internal/workload"
	"rafiki/internal/zoo"
)

func main() {
	models := []string{"inception_v3", "inception_v4", "inception_resnet_v2"}
	batches := []int{16, 32, 48, 64}
	const tau = 1.0 // latency SLO in seconds

	d, err := infer.NewDeployment(models, batches, tau, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment: %v\n", models)
	fmt.Printf("max throughput (async singles) %.0f r/s; min throughput (full sync ensemble) %.0f r/s; tau=%.1fs\n\n",
		d.MaxThroughput(), d.MinThroughput(), tau)

	anchor := d.MinThroughput()
	run := func(name string, p infer.Policy, warmCycles, tick float64) *infer.Metrics {
		rng := sim.NewRNG(99)
		arr, err := workload.NewSineArrival(anchor, 500*tau, rng.SplitNamed("arrival"))
		if err != nil {
			log.Fatal(err)
		}
		s := infer.NewSimulator(d, p, workload.NewSource(arr), ensemble.NewAccuracyTable(zoo.NewPredictor(99), 6000))
		s.Predictor = zoo.NewPredictor(100)
		if tick > 0 {
			s.ArrivalTick = tick
		}
		period := 500 * tau
		s.MeasureFrom = warmCycles * period
		met, err := s.Run((warmCycles + 1) * period)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s served=%6d overdue=%6d (%.1f%%) accuracy=%.4f\n",
			name, met.Served, met.Overdue, 100*float64(met.Overdue)/float64(met.Served), met.Accuracy.Mean())
		return met
	}

	syncMet := run("greedy-sync", &infer.SyncAll{}, 1, 0)
	async := run("greedy-async", &infer.AsyncEach{}, 1, 0)

	cfg := rl.DefaultConfig()
	cfg.Gamma = 0.9 // per 0.1s of virtual time (semi-MDP discounting)
	agent, err := rl.NewOnline(cfg, len(models), batches, sim.NewRNG(101))
	if err != nil {
		log.Fatal(err)
	}
	rlMet := run("rl (beta=1)", agent, 3, 0.1) // extra cycles of on-line training first

	fmt.Printf("\nthe RL scheduler cuts overdue from %d (full-ensemble sync) to %d while holding\n",
		syncMet.Overdue, rlMet.Overdue)
	fmt.Printf("accuracy at %.4f — between the no-ensemble async baseline (%.4f) and the full\n",
		rlMet.Accuracy.Mean(), async.Accuracy.Mean())
	fmt.Printf("ensemble (%.4f): the Figure 14 latency/accuracy trade-off.\n", syncMet.Accuracy.Mean())

	// Replica-aware serving (Section 6): the same load against one replica
	// per model, then four — the engine dispatches each batch onto the
	// earliest-free replica, so throughput scales near-linearly.
	q1 := wallClock(models, 1)
	q4 := wallClock(models, 4)
	fmt.Printf("\nhorizontal scaling: %.0f r/s at 1 replica -> %.0f r/s at 4 replicas (%.1fx)\n", q1, q4, q4/q1)

	declarative()
}

// declarative is the SDK view of the same machinery: deployments are
// DeploymentSpec resources — policy, SLO, queue cap, replica bounds,
// autoscale — realized by Deploy and mutated in place by ReconcileInference.
func declarative() {
	sys, err := rafiki.New(rafiki.Options{Seed: 11, Workers: 2, ServeSpeedup: 50})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.ImportImages("food", map[string]int{"pizza": 60, "ramen": 60, "salad": 60}); err != nil {
		log.Fatal(err)
	}
	job, err := sys.Train(rafiki.TrainConfig{
		Name: "food", Data: "food", Task: rafiki.ImageClassification,
		Hyper: rafiki.HyperConf{MaxTrials: 8, CoStudy: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		log.Fatal(err)
	}
	trained, err := sys.GetModels(job.ID)
	if err != nil {
		log.Fatal(err)
	}

	// Declare the deployment: RL scheduling, autoscaling 1..4 replicas.
	inf, err := sys.Deploy(rafiki.DeploymentSpec{
		Models:    trained,
		Policy:    rafiki.PolicyRL,
		SLO:       0.25,
		Replicas:  rafiki.ReplicaBounds{Min: 1, Max: 4},
		Autoscale: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeclarative deployment %s: policy=%s bounds=[%d,%d] autoscale=on\n",
		inf.ID, inf.Spec().Policy, inf.Spec().Replicas.Min, inf.Spec().Replicas.Max)

	var wg sync.WaitGroup
	for i := 0; i < 120; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Saturation 429s are expected at this offered load.
			_, _ = sys.Query(inf.ID, []byte(fmt.Sprintf("meal_%d_ramen.jpg", i)))
		}(i)
	}
	wg.Wait()
	desc := inf.Describe()
	fmt.Printf("served %d queries through the RL scheduler; agent took %d online decisions; replicas now %v\n",
		desc.Status.Queries, desc.Status.RLSteps, desc.Status.Replicas)

	// Reconcile the live deployment: swap back to greedy, pin 2..2 replicas.
	desc2, err := sys.ReconcileInference(inf.ID, rafiki.DeploymentSpec{
		Policy:   rafiki.PolicyGreedy,
		SLO:      0.25,
		Replicas: rafiki.ReplicaBounds{Min: 2, Max: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Query(inf.ID, []byte("post_reconcile_pizza.jpg")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconciled live to policy=%s replicas=%v — no queued query was dropped\n",
		desc2.Status.Policy, desc2.Status.Replicas)
	if err := sys.StopInference(inf.ID); err != nil {
		log.Fatal(err)
	}

	cached(sys, trained)
}

// cached is the prediction-cache act (DESIGN.md §11): the same ensemble with
// the read-through cache enabled serves a skewed stream — a hot input is
// admitted after repeat touches and then short-circuits the runtime
// entirely — and a live policy reconcile bumps the cache epoch, so no result
// from the superseded ensemble is ever served stale.
func cached(sys *rafiki.System, trained []rafiki.ModelInstance) {
	spec := rafiki.DeploymentSpec{
		Models: trained,
		Policy: rafiki.PolicyGreedy,
		SLO:    0.25,
		// Threshold 1.5: the second touch of a key admits it.
		Cache: &rafiki.CacheSpec{Enabled: true, AdmitThreshold: 1.5},
	}
	inf, err := sys.Deploy(spec)
	if err != nil {
		log.Fatal(err)
	}
	hot := []byte("todays_special_ramen.jpg")
	for i := 0; i < 6; i++ {
		if _, err := sys.Query(inf.ID, hot); err != nil {
			log.Fatal(err)
		}
	}
	st := inf.Stats()
	fmt.Printf("\ncached deployment %s: 6 hot queries -> hits=%d admissions=%d hit_rate=%.2f\n",
		inf.ID, st.Cache.Hits, st.Cache.Admissions, st.Cache.HitRate)

	// Swap the policy live: the epoch bump invalidates the cached
	// full-ensemble result, so the next query recomputes under async.
	spec.Policy = rafiki.PolicyAsync
	if _, err := sys.ReconcileInference(inf.ID, spec); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Query(inf.ID, hot); err != nil {
		log.Fatal(err)
	}
	st = inf.Stats()
	fmt.Printf("after live policy swap: invalidations=%d stale_evictions=%d — the superseded ensemble result was recomputed, never served\n",
		st.Cache.Invalidations, st.Cache.StaleEvictions)
	if err := sys.StopInference(inf.ID); err != nil {
		log.Fatal(err)
	}
}

// wallClock serves real concurrent clients through the same engine: each
// goroutine submits a request and blocks on its future; the greedy-sync
// policy groups the concurrent callers into shared batches under the SLO,
// spread across the model's replicas. Returns the served throughput in
// requests per profiled second.
func wallClock(models []string, replicas int) float64 {
	const (
		tau     = 0.25 // latency SLO (profiled seconds)
		speedup = 50   // run the profiled GPU latencies 50x faster than wall time
		clients = 200
	)
	d, err := infer.NewDeployment(models, []int{1, 2, 4, 8, 16}, tau, 1)
	if err != nil {
		log.Fatal(err)
	}
	d.Replicas = make([]int, len(models))
	for i := range d.Replicas {
		d.Replicas[i] = replicas
	}
	combine := func(ids []uint64, payloads []any, subset []string, _ [][]any) ([]any, error) {
		out := make([]any, len(ids))
		for i := range ids {
			out[i] = fmt.Sprintf("prediction(%v)", payloads[i])
		}
		return out, nil
	}
	rt, err := infer.NewRuntime(d, &infer.SyncAll{},
		ensemble.NewAccuracyTable(zoo.NewPredictor(99), 2000), combine,
		infer.RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: speedup}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nwall-clock runtime: %d concurrent clients, %d replica(s)/model, tau=%.2fs, batches %v\n",
		clients, replicas, tau, d.Batches)
	// Pace arrivals near the replicated sync ensemble's saturation
	// throughput so the scheduler is pushed toward max-batch dispatches
	// without the queue diverging (the paper's "overwhelming requests"
	// regime, scaled by the replica count).
	gap := float64(time.Second) / (d.MinThroughput() * float64(replicas)) / speedup
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		// Absolute-target pacing: sleeping per client would floor the gap
		// at the timer resolution and cap the arrival rate.
		if d := time.Until(start.Add(time.Duration(float64(i) * gap))); d > 0 {
			time.Sleep(d)
		}
		go func(i int) {
			defer wg.Done()
			f, err := rt.Submit(fmt.Sprintf("img-%03d", i))
			if err != nil {
				log.Printf("submit %d: %v", i, err)
				return
			}
			if _, err := f.Wait(); err != nil {
				log.Printf("wait %d: %v", i, err)
			}
			f.Release()
		}(i)
	}
	wg.Wait()
	rt.Close()
	elapsed := time.Since(start).Seconds() * speedup // profiled seconds

	st := rt.Stats()
	fmt.Printf("served=%d in %d batch dispatches (%.1f req/dispatch) — the queue did its job\n",
		st.Served, st.Dispatches, float64(st.Served)/float64(st.Dispatches))
	fmt.Printf("latency p50=%.3fs p99=%.3fs against tau=%.2fs (%d overdue, %d dropped)\n",
		st.P50Latency, st.P99Latency, tau, st.Overdue, st.Dropped)
	return float64(st.Served) / elapsed
}

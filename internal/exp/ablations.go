package exp

import (
	"fmt"

	"rafiki/internal/ensemble"
	"rafiki/internal/infer"
	"rafiki/internal/sim"
	"rafiki/internal/tune"
	"rafiki/internal/workload"
	"rafiki/internal/zoo"
)

// AblationTieBreak compares the paper's best-model tie-break against a
// random tie-break on the two-model ensemble where the paper observes the
// degeneracy (DESIGN.md §5.1): with the best-model rule the pair equals
// inception_v3 exactly; a random rule lands between the two singles.
func AblationTieBreak(sc Scale) (*Figure, error) {
	pred := zoo.NewPredictor(sc.Seed)
	pair := []string{"resnet_v2_101", "inception_v3"}
	accs := make([]float64, len(pair))
	for i, m := range pair {
		accs[i] = zoo.MustLookup(m).Top1Accuracy
	}
	rng := sim.NewRNG(sc.Seed + 40)

	bestCorrect, randCorrect, iv3Correct := 0, 0, 0
	n := sc.EnsembleSamples
	for r := 0; r < n; r++ {
		preds, truth, err := pred.PredictAll(uint64(r), pair)
		if err != nil {
			return nil, err
		}
		vote, err := ensemble.Vote(preds, accs)
		if err != nil {
			return nil, err
		}
		if vote == truth {
			bestCorrect++
		}
		// Random tie-break: agreeing predictions win; otherwise coin flip.
		rv := preds[0]
		if preds[0] != preds[1] && rng.Bernoulli(0.5) {
			rv = preds[1]
		}
		if rv == truth {
			randCorrect++
		}
		if preds[1] == truth {
			iv3Correct++
		}
	}
	fig := &Figure{ID: "ablation-tiebreak", Title: "Majority-vote tie-break rule (two-model ensemble)"}
	best := float64(bestCorrect) / float64(n)
	random := float64(randCorrect) / float64(n)
	iv3 := float64(iv3Correct) / float64(n)
	fig.addf("best-model tie-break: %.4f (== inception_v3 alone: %.4f)", best, iv3)
	fig.addf("random tie-break:     %.4f (between the two singles)", random)
	fig.put("best_rule", best)
	fig.put("random_rule", random)
	fig.put("iv3_alone", iv3)
	return fig, nil
}

// AblationAlphaGreedy compares CoStudy's alpha-greedy initialization against
// always-warm-starting (alpha pinned to 0) under Bayesian optimization — the
// configuration where the paper observed poisoned checkpoints degrading the
// GP prior (Section 4.2.2 / Figure 9a).
func AblationAlphaGreedy(sc Scale) (*Figure, error) {
	run := func(alpha0, alphaMin float64) (*tune.SimResult, error) {
		conf := tune.DefaultConfig("ablation-alpha", true)
		conf.MaxTrials = sc.TuneTrialsBayes
		conf.Alpha0 = alpha0
		conf.AlphaMin = alphaMin
		return tune.RunSim(tune.SimOptions{
			Conf: conf, Advisor: tune.BayesOpt, Workers: sc.TuneWorkers, Seed: sc.Seed + 50,
		})
	}
	greedy, err := run(1.0, 0.05) // the paper's decaying schedule
	if err != nil {
		return nil, err
	}
	alwaysWarm, err := run(0.0, 0.0)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "ablation-alpha", Title: "alpha-greedy initialization vs always-warm (CoStudy + BO)"}
	fig.addf("alpha-greedy best: %.4f | always-warm best: %.4f", greedy.BestAccuracy(), alwaysWarm.BestAccuracy())
	fig.put("alpha_greedy_best", greedy.BestAccuracy())
	fig.put("always_warm_best", alwaysWarm.BestAccuracy())
	return fig, nil
}

// AblationBackoff sweeps the floor of Algorithm 3's back-off δ (DESIGN.md
// §5.3, §20) through the deployment's BackoffDelta. The runtime's δ
// controller starts at that floor and adapts above it to the batches that
// finish past τ, so each row also prints the δ the run ended at. A floor of
// 0 lets δ fall to dispatching at the last possible moment; a high floor
// dispatches early (smaller batches, lower throughput).
func AblationBackoff(sc Scale) (*Figure, error) {
	d, err := infer.NewDeployment([]string{"inception_v3"}, servingBatches, 0.56, 1)
	if err != nil {
		return nil, err
	}
	anchor := zoo.MustLookup("inception_v3").Throughput(servingBatches[0])
	fig := &Figure{ID: "ablation-backoff", Title: "Algorithm 3 back-off floor sweep (single model, min anchor)"}
	for _, delta := range []float64{0, 0.1, 0.3} {
		d.BackoffDelta = delta * d.Tau
		met, err := servingRun(d, &infer.SyncAll{}, anchor, sc, 60, false, 0)
		if err != nil {
			return nil, err
		}
		fig.addf("delta floor=%.1f·tau: served=%d overdue=%d mean-latency=%.3fs final delta=%.3f·tau",
			delta, met.Served, met.Overdue, meanOf(met.Latencies), met.BackoffDelta/d.Tau)
		fig.put(fmt.Sprintf("overdue_delta_%.1f", delta), float64(met.Overdue))
		fig.put(fmt.Sprintf("final_delta_%.1f", delta), met.BackoffDelta/d.Tau)
	}
	return fig, nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// AblationWorkload verifies the Equation 8–9 workload calibration end to
// end: the generated stream must exceed its anchor ~20% of the time and
// peak near 1.1×.
func AblationWorkload(sc Scale) (*Figure, error) {
	rng := sim.NewRNG(sc.Seed + 70)
	arr, err := workload.NewSineArrival(272, 280, rng)
	if err != nil {
		return nil, err
	}
	over, n := 0, 20000
	peak := 0.0
	for i := 0; i < n; i++ {
		t := arr.Period * float64(i) / float64(n)
		r := arr.Rate(t)
		if r > arr.Anchor {
			over++
		}
		if r > peak {
			peak = r
		}
	}
	fig := &Figure{ID: "ablation-workload", Title: "Sine workload calibration (Equations 8-9)"}
	frac := float64(over) / float64(n)
	fig.addf("fraction above anchor: %.3f (target 0.200); peak/anchor: %.3f (target 1.100)", frac, peak/arr.Anchor)
	fig.put("over_fraction", frac)
	fig.put("peak_ratio", peak/arr.Anchor)
	return fig, nil
}

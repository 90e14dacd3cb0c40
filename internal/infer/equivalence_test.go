package infer

import (
	"math"
	"testing"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/workload"
	"rafiki/internal/zoo"
)

// goldenRun pins the pre-refactor simulator's exact output on a fixed
// workload seed, captured from the seed revision (single dispatch loop
// inside Simulator, before the Engine extraction). The refactored
// Simulator — now an adapter over the clock-agnostic Engine — must
// reproduce every number bit-for-bit: same arrivals, same decision points,
// same dispatch order, same reward arithmetic.
type goldenRun struct {
	models   []string
	policy   func(d *Deployment) Policy
	tau      float64
	anchor   float64
	duration float64
	seed     int64

	served, overdue, dropped, decisions int
	reward                              float64
	accMean                             float64
	accLen                              int
	arrivals                            float64
	latencySum                          float64
}

var goldenRuns = []goldenRun{
	{
		models: []string{"inception_v3"},
		policy: func(d *Deployment) Policy { return &GreedySingle{D: d} },
		tau:    0.56, anchor: 272, duration: 120, seed: 6,
		served: 30896, overdue: 19842, dropped: 0, decisions: 1020,
		reward: 134.6774453125, accMean: 0.7838062372, accLen: 489,
		arrivals: 30901, latencySum: 59936.4199999722,
	},
	{
		models: []string{"inception_v3", "inception_v4", "inception_resnet_v2"},
		policy: func(d *Deployment) Policy { return &SyncAll{D: d} },
		tau:    1.0, anchor: 128, duration: 120, seed: 4,
		served: 13808, overdue: 4671, dropped: 0, decisions: 4364,
		reward: 119.0308398437, accMean: 0.8283627248, accLen: 241,
		arrivals: 13812, latencySum: 15788.2858000239,
	},
}

func TestSimulatorMatchesSeedGolden(t *testing.T) {
	for _, g := range goldenRuns {
		d, err := NewDeployment(g.models, []int{16, 32, 48, 64}, g.tau, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(g.seed)
		arr, err := workload.NewSineArrival(g.anchor, 500*d.Tau, rng.SplitNamed("arrival"))
		if err != nil {
			t.Fatal(err)
		}
		s := NewSimulator(d, g.policy(d), workload.NewSource(arr), ensemble.NewAccuracyTable(zoo.NewPredictor(g.seed), 4000))
		s.Predictor = zoo.NewPredictor(g.seed + 1)
		met, err := s.Run(g.duration)
		if err != nil {
			t.Fatal(err)
		}
		if met.Served != g.served || met.Overdue != g.overdue || met.Dropped != g.dropped || met.Decisions != g.decisions {
			t.Fatalf("%s: counts served=%d overdue=%d dropped=%d decisions=%d, want %d/%d/%d/%d",
				g.models, met.Served, met.Overdue, met.Dropped, met.Decisions,
				g.served, g.overdue, g.dropped, g.decisions)
		}
		if math.Abs(met.Reward-g.reward) > 1e-8 {
			t.Fatalf("%s: reward = %.10f, want %.10f", g.models, met.Reward, g.reward)
		}
		if math.Abs(met.Accuracy.Mean()-g.accMean) > 1e-8 || met.Accuracy.Len() != g.accLen {
			t.Fatalf("%s: accuracy mean=%.10f len=%d, want %.10f/%d",
				g.models, met.Accuracy.Mean(), met.Accuracy.Len(), g.accMean, g.accLen)
		}
		if met.ArrivalRate.Total() != g.arrivals {
			t.Fatalf("%s: arrivals = %v, want %v", g.models, met.ArrivalRate.Total(), g.arrivals)
		}
		sum := 0.0
		for _, l := range met.Latencies {
			sum += l
		}
		if math.Abs(sum-g.latencySum) > 1e-6 {
			t.Fatalf("%s: latency sum = %.10f, want %.10f", g.models, sum, g.latencySum)
		}
	}
}

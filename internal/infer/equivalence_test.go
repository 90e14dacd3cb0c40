package infer

import (
	"math"
	"testing"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/workload"
	"rafiki/internal/zoo"
)

// goldenRun pins the Simulator harness's exact output on a fixed workload
// seed: a Runtime over the event loop, its answers measured from the
// combiner. A change to any number here is a change to what the serving
// code does on this workload.
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
		policy: func(d *Deployment) Policy { return &SyncAll{D: d} },
		tau:    0.56, anchor: 272, duration: 120, seed: 6,
		served: 30896, overdue: 19866, dropped: 0, decisions: 1026,
		reward: 134.3850390625, accMean: 0.7839388550, accLen: 492,
		arrivals: 30901, latencySum: 60145.5720000133,
	},
	{
		models: []string{"inception_v3", "inception_v4", "inception_resnet_v2"},
		policy: func(d *Deployment) Policy { return &SyncAll{D: d} },
		tau:    1.0, anchor: 128, duration: 120, seed: 4,
		served: 13808, overdue: 4566, dropped: 0, decisions: 4384,
		reward: 120.3987109375, accMean: 0.8279808959, accLen: 253,
		arrivals: 13812, latencySum: 15652.9640000239,
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

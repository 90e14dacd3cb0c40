package infer

import (
	"errors"

	"rafiki/internal/ensemble"
	"rafiki/internal/metrics"
	"rafiki/internal/sim"
	"rafiki/internal/workload"
	"rafiki/internal/zoo"
)

// Simulator is the virtual-time harness behind the paper's serving figures.
// It serves a workload through a Runtime over a sim.EventLoop with the
// default SimBackend, so every decision, latency feedback, δ step, replica
// occupancy and answer in a figure is the serving code's own. Each arrival tick
// submits the arrivals of the tick just ended, at its end, and the run
// measures the answers its combiner folds.
type Simulator struct {
	Deployment *Deployment
	Policy     Policy
	Source     *workload.Source
	// AccTable provides the surrogate ensemble accuracy a(M[v]) for rewards.
	AccTable *ensemble.AccuracyTable
	// Predictor, when non-nil, answers each request with its members'
	// simulated predictions voted into one label, and the run measures
	// accuracy on those answers; nil skips accuracy (single-model runs).
	Predictor *zoo.Predictor
	// ArrivalTick is the arrival granularity (seconds).
	ArrivalTick float64
	// QueueCap bounds the queue (paper: full queues drop new requests; 0 =
	// DefaultQueueCap).
	QueueCap int
	// MeasureFrom opens the measurement window (RL warm-up): answers,
	// arrivals and drops before it are not counted, and Reward and Decisions
	// are the runtime's Stats deltas from it.
	MeasureFrom float64
}

// NewSimulator wires a serving simulation.
func NewSimulator(d *Deployment, p Policy, src *workload.Source, acc *ensemble.AccuracyTable) *Simulator {
	return &Simulator{
		Deployment:  d,
		Policy:      p,
		Source:      src,
		AccTable:    acc,
		ArrivalTick: 0.02,
	}
}

// Metrics is a simulated run's outcome inside its measurement window.
type Metrics struct {
	// Served is the number of answered requests; Overdue those answered
	// more than τ after their submission; Dropped those refused by the full
	// queue.
	Served, Overdue, Dropped int
	// OverdueRate and ArrivalRate are per-second series of overdue answers
	// (Figures 10/13/14c/15c...) and of admitted arrivals.
	OverdueRate, ArrivalRate *metrics.WindowCounter
	// Accuracy is the per-batch accuracy of the answers over time (Figures
	// 14a/15a...); empty without a Predictor.
	Accuracy *metrics.TimeSeries
	// Latencies holds every answered request's latency.
	Latencies []float64
	// Reward (Equation 7) and Decisions are the runtime's over the window;
	// BackoffDelta is Algorithm 3's δ when the run ended.
	Reward, BackoffDelta float64
	Decisions            int
}

// Run simulates [0, duration) virtual seconds of arrivals, serves until the
// event loop drains, and returns the metrics.
func (s *Simulator) Run(duration float64) (*Metrics, error) {
	loop := sim.NewEventLoop()
	met := &Metrics{
		OverdueRate: metrics.NewWindowCounter(1),
		ArrivalRate: metrics.NewWindowCounter(1),
		Accuracy:    metrics.NewTimeSeries("accuracy"),
	}
	var runErr error
	combine := func(_ []uint64, payloads []any, models []string, _ [][]any) ([]any, error) {
		answers, err := s.answer(loop.Now(), payloads, models, met)
		if runErr == nil {
			runErr = err
		}
		return answers, err
	}
	rt, err := NewRuntime(s.Deployment, s.Policy, s.AccTable, combine, RuntimeConfig{Timeline: loop, QueueCap: s.QueueCap})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	var start Stats
	loop.Schedule(max(s.MeasureFrom, 0), func() { start = rt.Stats() })
	from := 0.0
	// pending holds the submitted futures, oldest first. Answered ones go
	// back to the slot pool, so a run does not allocate one per request.
	var pending []Future
	releaseAnswered := func() {
		for len(pending) > 0 && pending[0].s.state.Load() == futResolved {
			pending[0].Release()
			pending = pending[1:]
		}
	}
	var arrivalTick func()
	arrivalTick = func() {
		now := loop.Now()
		releaseAnswered()
		// Each payload is the workload request, its ID keying the Predictor
		// and its Arrival restamped to now, when the service first sees it.
		reqs := s.Source.Tick(from, now-from)
		for i := range reqs {
			reqs[i].Arrival = now
			f, err := rt.Submit(&reqs[i])
			switch {
			case errors.Is(err, ErrQueueFull):
				if now >= s.MeasureFrom {
					met.Dropped++
				}
			case err != nil:
				return // a policy error closed the runtime
			default:
				pending = append(pending, f)
				if now >= s.MeasureFrom {
					met.ArrivalRate.Add(now, 1)
				}
			}
		}
		from = now
		if now < duration {
			loop.After(s.ArrivalTick, arrivalTick)
		}
	}
	loop.Schedule(s.ArrivalTick, arrivalTick)
	for loop.Step() {
	}
	releaseAnswered()
	if runErr == nil && rt.closed.Load() {
		runErr = rt.closedErr()
	}
	if runErr != nil {
		return nil, runErr
	}
	end := rt.Stats()
	met.Reward = end.Reward - start.Reward
	met.Decisions = end.Decisions - start.Decisions
	met.BackoffDelta = end.BackoffDelta
	return met, nil
}

// answer folds one finished batch at time now: each request's answer is
// its members' simulated predictions voted into one label (nil without a
// Predictor), and the measured ones count into met.
func (s *Simulator) answer(now float64, payloads []any, models []string, met *Metrics) ([]any, error) {
	answers := make([]any, len(payloads))
	measured := now >= s.MeasureFrom
	correct := 0
	for i, p := range payloads {
		q := p.(*workload.Request)
		if s.Predictor != nil {
			preds, truth, err := s.Predictor.PredictAll(q.ID, models)
			if err != nil {
				return nil, err
			}
			vote, err := ensemble.VoteModels(models, preds)
			if err != nil {
				return nil, err
			}
			answers[i] = vote
			if vote == truth {
				correct++
			}
		}
		if !measured {
			continue
		}
		lat := now - q.Arrival
		met.Served++
		met.Latencies = append(met.Latencies, lat)
		if lat > s.Deployment.Tau {
			met.Overdue++
			met.OverdueRate.Add(now, 1)
		}
	}
	if s.Predictor != nil && measured {
		return answers, met.Accuracy.Append(now, float64(correct)/float64(len(payloads)))
	}
	return answers, nil
}

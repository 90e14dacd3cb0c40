package infer

import (
	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/workload"
	"rafiki/internal/zoo"
)

// Simulator drives a deployment+policy over a workload in virtual time: a
// discrete-event adapter over the clock-agnostic Engine. Arrival ticks feed
// the queue, every tick and every model-free instant is a decision point,
// and dispatch completions are scheduled back onto the event loop.
type Simulator struct {
	Deployment *Deployment
	Policy     Policy
	Source     *workload.Source
	// AccTable provides the surrogate ensemble accuracy a(M[v]) for rewards.
	AccTable *ensemble.AccuracyTable
	// Predictor, when non-nil, simulates real per-request predictions for
	// measured accuracy; nil skips accuracy measurement (single-model runs).
	Predictor *zoo.Predictor
	// ArrivalTick is the simulator's arrival granularity (seconds).
	ArrivalTick float64
	// QueueCap bounds the queue (paper: full queues drop new requests).
	QueueCap int
	// Shards is the queue-shard count (0 or 1 = the classic single FIFO,
	// which reproduces the pre-shard engine bit-for-bit).
	Shards int
	// MeasureFrom discards metrics before this virtual time (RL warm-up).
	MeasureFrom float64

	loop *sim.EventLoop
	eng  *Engine
	err  error
}

// NewSimulator wires a serving simulation.
func NewSimulator(d *Deployment, p Policy, src *workload.Source, acc *ensemble.AccuracyTable) *Simulator {
	return &Simulator{
		Deployment:  d,
		Policy:      p,
		Source:      src,
		AccTable:    acc,
		ArrivalTick: 0.02,
		QueueCap:    4096,
	}
}

// Run simulates [0, duration) virtual seconds and returns the metrics.
func (s *Simulator) Run(duration float64) (*Metrics, error) {
	s.loop = sim.NewEventLoop()
	s.eng = NewEngine(s.Deployment, s.Policy, s.AccTable, s.QueueCap)
	if s.Shards > 0 {
		if err := s.eng.SetShards(s.Shards); err != nil {
			return nil, err
		}
	}
	s.eng.Predictor = s.Predictor
	s.eng.MeasureFrom = s.MeasureFrom
	s.err = nil

	var arrivalTick func()
	arrivalTick = func() {
		now := s.loop.Now()
		for _, r := range s.Source.Tick(now, s.ArrivalTick) {
			s.eng.Enqueue(now, Request{ID: r.ID, Arrival: r.Arrival})
		}
		s.step()
		if s.err == nil && now+s.ArrivalTick < duration {
			s.loop.After(s.ArrivalTick, arrivalTick)
		}
	}
	s.loop.Schedule(0, arrivalTick)
	for s.loop.Step() {
		if s.err != nil {
			return nil, s.err
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.eng.Metrics(), nil
}

// step runs a decision point and schedules the follow-up decision points at
// every dispatched model's finish time.
func (s *Simulator) step() {
	outs, err := s.eng.Step(s.loop.Now())
	s.fail(err)
	for _, out := range outs {
		for _, f := range out.ModelFinish {
			s.loop.Schedule(f, s.step)
		}
	}
}

func (s *Simulator) fail(err error) {
	if err != nil && s.err == nil {
		s.err = err
	}
}

package tune

import (
	"fmt"

	"rafiki/internal/advisor"
	"rafiki/internal/metrics"
	"rafiki/internal/ps"
	"rafiki/internal/sim"
	"rafiki/internal/surrogate"
)

// AdvisorKind selects the TrialAdvisor for a simulated study.
type AdvisorKind string

// Supported advisors.
const (
	RandomSearch AdvisorKind = "random"
	BayesOpt     AdvisorKind = "bayes"
	GridSearch   AdvisorKind = "grid"
)

// SimOptions configures a virtual-time study run.
type SimOptions struct {
	Conf    Config
	Advisor AdvisorKind
	Workers int
	Seed    int64
	// Trainer overrides the surrogate config; zero value uses defaults.
	Trainer surrogate.Config
	// Space overrides the hyper-parameter space; nil uses the Section
	// 7.1.1 CIFAR-10 ConvNet space.
	Space *advisor.HyperSpace
}

// SimResult is the outcome of a virtual-time study.
type SimResult struct {
	Master *Master
	// WallSeconds is the virtual time at which the last trial finished.
	WallSeconds float64
	// BestSoFar maps virtual time → best accuracy so far (Figure 11b).
	BestSoFar *metrics.TimeSeries
	// BestByEpochs maps cumulative training epochs → best accuracy so far
	// (Figures 8c/9c).
	BestByEpochs *metrics.TimeSeries
	// History is the per-trial log (Figures 8a/8b/9a/9b).
	History []TrialRecord
}

// BestAccuracy returns the study's final best accuracy.
func (r *SimResult) BestAccuracy() float64 { return r.Master.BestPerf() }

// NewAdvisor builds the TrialAdvisor of the given kind over space; rng
// seeds the random and Bayesian advisors (the grid needs none).
func NewAdvisor(kind AdvisorKind, space *advisor.HyperSpace, rng *sim.RNG) (advisor.Advisor, error) {
	switch kind {
	case RandomSearch, "":
		return advisor.NewRandomAdvisor(space, rng), nil
	case BayesOpt:
		return advisor.NewBayesAdvisor(space, rng), nil
	case GridSearch:
		g, err := advisor.NewGridAdvisor(space, 3)
		if err != nil {
			return nil, err
		}
		return g, nil
	}
	return nil, fmt.Errorf("tune: unknown advisor kind %q", kind)
}

// RunSim executes a full study over virtual time with the given number of
// simulated workers. Worker epochs interleave exactly as they would on a
// real cluster: each epoch costs Trainer.EpochSeconds of virtual time, and
// the master observes reports in virtual-time order — so CoStudy's
// checkpoint sharing sees the same interleavings the paper's deployment
// does, while the whole study runs in milliseconds of real time. Each
// simulated GPU is a Worker whose protocol steps the event loop schedules.
func RunSim(opt SimOptions) (*SimResult, error) {
	if opt.Workers <= 0 {
		return nil, fmt.Errorf("tune: need at least one worker, got %d", opt.Workers)
	}
	root := sim.NewRNG(opt.Seed)
	space := opt.Space
	if space == nil {
		var err error
		space, err = advisor.CIFAR10ConvNetSpace()
		if err != nil {
			return nil, err
		}
	}
	adv, err := NewAdvisor(opt.Advisor, space, root.SplitNamed("advisor"))
	if err != nil {
		return nil, err
	}
	pserver := ps.New(8, nil)
	master, err := NewMaster(opt.Conf, adv, pserver, root.SplitNamed("master"))
	if err != nil {
		return nil, err
	}
	trainerCfg := opt.Trainer
	if trainerCfg.Ceiling == 0 {
		trainerCfg = surrogate.DefaultConfig()
	}
	trainer := surrogate.NewTrainer(trainerCfg)

	loop := sim.NewEventLoop()
	res := &SimResult{
		Master:       master,
		BestSoFar:    metrics.NewTimeSeries("best-accuracy"),
		BestByEpochs: metrics.NewTimeSeries("best-by-epochs"),
	}

	// step runs the worker's next protocol step: an epoch of the trial in
	// flight (closing the trial when it ends), then kRequest for the next
	// trial once the worker is idle.
	step := func(w *Worker) error {
		if w.session != nil {
			done, err := w.epoch()
			if err != nil || !done {
				return err
			}
			if err := w.end(loop.Now()); err != nil {
				return err
			}
			if err := res.BestSoFar.Append(loop.Now(), master.BestPerf()); err != nil {
				return err
			}
			if err := res.BestByEpochs.Append(float64(master.TotalEpochs()), master.BestPerf()); err != nil {
				return err
			}
			res.WallSeconds = loop.Now()
		}
		_, err := w.begin(loop.Now())
		return err
	}
	var runErr error
	var advance func(w *Worker)
	advance = func(w *Worker) {
		if runErr != nil {
			return
		}
		if runErr = step(w); runErr == nil && w.session != nil {
			loop.After(trainerCfg.EpochSeconds, func() { advance(w) })
		}
	}
	for i := 0; i < opt.Workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		advance(NewWorker(name, master, trainer, pserver, root.SplitNamed(name)))
	}
	for runErr == nil && loop.Step() {
	}
	if runErr != nil {
		return nil, runErr
	}
	res.History = master.History()
	return res, nil
}

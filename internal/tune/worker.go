package tune

import (
	"fmt"

	"rafiki/internal/ps"
	"rafiki/internal/sim"
	"rafiki/internal/surrogate"
)

// Worker evaluates trials against the surrogate trainer, speaking the
// kRequest/kReport/kFinish protocol with its master. One Worker runs one
// trial at a time (the paper: "At one time, each worker trains the model
// with a given trial"). The protocol's three steps — begin, epoch, end — are
// the only copy of it: RunOneTrial loops them on the wall clock, RunSim
// schedules them on a virtual-time event loop.
type Worker struct {
	Name    string
	master  *Master
	trainer *surrogate.Trainer
	ps      *ps.Server
	rng     *sim.RNG

	// The trial in flight; nil between trials.
	asg     *Assignment
	session *surrogate.Session
}

// NewWorker returns a worker bound to a master. ps may be nil when the study
// never checkpoints (plain Study without final puts would still want one;
// pass a server in normal use).
func NewWorker(name string, master *Master, trainer *surrogate.Trainer, pserver *ps.Server, rng *sim.RNG) *Worker {
	return &Worker{Name: name, master: master, trainer: trainer, ps: pserver, rng: rng}
}

// RunOneTrial requests, trains and reports a single trial. It returns false
// when the master has no more trials.
func (w *Worker) RunOneTrial() (bool, error) {
	if more, err := w.begin(0); !more {
		return false, err
	}
	for {
		done, err := w.epoch()
		if err != nil {
			return false, err
		}
		if done {
			break
		}
	}
	if err := w.end(0); err != nil {
		return false, err
	}
	return true, nil
}

// begin sends kRequest at time now and opens a training session on the
// assigned trial, warm-started as the master says. It returns false when the
// master has no more trials.
func (w *Worker) begin(now float64) (bool, error) {
	asg, err := w.master.RequestTrial(w.Name, now)
	if asg == nil || err != nil {
		return false, err
	}
	hyp, err := surrogate.FromTrial(asg.Trial)
	if err != nil {
		return false, err
	}
	w.asg, w.session = asg, w.trainer.NewSession(hyp, asg.Warm, w.rng)
	return true, nil
}

// epoch trains one epoch and sends kReport, obeying the master's reply:
// kPut checkpoints the parameters, kStop aborts the trial. It returns true
// when the trial is over.
func (w *Worker) epoch() (bool, error) {
	acc, done := w.session.Step()
	dir, err := w.master.ReportEpoch(w.Name, acc)
	if err != nil {
		return false, err
	}
	switch dir {
	case DirPut:
		if err := w.putCheckpoint(acc, w.session.Quality()); err != nil {
			return false, err
		}
	case DirStop:
		w.session.Abort()
		done = true
	}
	return done, nil
}

// end sends kFinish at time now, makes the final put when the master asks
// for it, and closes the trial.
func (w *Worker) end(now float64) error {
	res := w.session.Result()
	putFinal, err := w.master.FinishTrial(w.Name, res, now)
	if err == nil && putFinal {
		err = w.putCheckpoint(res.FinalAccuracy, res.FinalQuality)
	}
	w.asg, w.session = nil, nil
	return err
}

// Run loops RunOneTrial until the study completes.
func (w *Worker) Run() error {
	for {
		more, err := w.RunOneTrial()
		if err != nil {
			return fmt.Errorf("tune: worker %s: %w", w.Name, err)
		}
		if !more {
			return nil
		}
	}
}

// putCheckpoint persists the worker's current model parameters. Under
// architecture tuning the checkpoint carries the trial's per-layer shape
// signatures so future trials can shape-match against it.
func (w *Worker) putCheckpoint(acc, quality float64) error {
	if w.ps == nil {
		return fmt.Errorf("tune: worker %s ordered to checkpoint without a parameter server", w.Name)
	}
	c := w.master.conf
	var layers []ps.Layer
	if c.ArchKnob != "" {
		if depth, err := w.asg.Trial.Float(c.ArchKnob); err == nil {
			layers = ArchLayers(int(depth), quality, acc)
		}
	}
	return saveCheckpoint(w.ps, c.Name, c.Model, w.asg.Trial.ID, acc, quality, c.Public, layers)
}

// saveCheckpoint writes a trial checkpoint to the parameter server. layers
// may be nil for the fixed-architecture stand-in payload; the checkpoint
// metadata — accuracy and latent quality — is what warm starts consume.
func saveCheckpoint(pserver *ps.Server, study, model, trialID string, acc, quality float64, public bool, layers []ps.Layer) error {
	if layers == nil {
		layers = []ps.Layer{
			{Name: "conv", Shape: []int{3, 3, 32}, Data: []float64{quality}},
			{Name: "fc", Shape: []int{256, 10}, Data: []float64{acc}},
		}
	}
	ck := &ps.Checkpoint{
		Model:    model,
		TrialID:  trialID,
		Accuracy: acc,
		Quality:  quality,
		Owner:    study,
		Public:   public,
		Layers:   layers,
	}
	return pserver.Put(checkpointKey(study, trialID), ck)
}

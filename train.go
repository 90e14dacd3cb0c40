package rafiki

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"rafiki/internal/advisor"
	"rafiki/internal/cluster"
	"rafiki/internal/ps"
	"rafiki/internal/surrogate"
	"rafiki/internal/tune"
	"rafiki/internal/zoo"
)

// HyperConf configures hyper-parameter tuning for a training job (the
// paper's rafiki.HyperConf).
type HyperConf struct {
	// MaxTrials is the tuning budget per selected model (default 30).
	MaxTrials int
	// CoStudy enables collaborative tuning (Algorithm 2; default true).
	CoStudy bool
	// Advisor picks the search algorithm: "random" (default), "bayes" or
	// "grid".
	Advisor string
	// Delta is the CoStudy checkpointing threshold (default 0.005).
	Delta float64
}

func (h HyperConf) withDefaults() HyperConf {
	if h.MaxTrials <= 0 {
		h.MaxTrials = 30
	}
	if h.Advisor == "" {
		h.Advisor = "random"
	}
	if !(h.Delta > 0) { // also NaN, which would never checkpoint
		h.Delta = 0.005
	}
	return h
}

// TrainConfig mirrors the Figure 2 train.py call.
type TrainConfig struct {
	Name string
	// Data names a dataset previously imported with ImportImages.
	Data string
	// Task selects the built-in model catalogue (e.g. ImageClassification).
	Task string
	// InputShape and OutputShape customize the model head (the paper: the
	// output shape "could be the total number of classes").
	InputShape  []int
	OutputShape []int
	Hyper       HyperConf
	// Models optionally pins the architectures to tune; empty selects a
	// diverse set per Section 4.1.
	Models []string
}

// TrainStatus reports a training job's progress.
type TrainStatus struct {
	JobID     string
	Done      bool
	Models    []string
	Finished  int // trials completed across all models
	MaxTrials int // total budget
	// BestAccuracy per model name.
	BestAccuracy map[string]float64
}

// TrainJob is a running or finished training job.
type TrainJob struct {
	ID   string
	Conf TrainConfig

	sys    *System
	models []string
	wg     sync.WaitGroup

	// completeOnce guards the one-time completion step (build the final
	// snapshot, journal it, release the containers): Wait and the monitor
	// goroutine race to it, and a recovered job arrives with it already
	// burnt.
	completeOnce sync.Once

	mu   sync.Mutex
	errs []error
	// masters answer Status while the job trains. They are all built before
	// the job is published, and dropped when final is set.
	masters map[string]*tune.Master
	// final is the finished job's status: built once from the masters, or
	// restored from the journal. A finished job answers from it alone.
	final *TrainStatus
}

// Train submits a training job (Figure 2's rafiki.Train(...).run()): Rafiki
// selects built-in models for the task (Section 4.1's diverse-set
// selection), spawns a Study/CoStudy master per model plus tuning workers as
// cluster containers, and tunes asynchronously. Use Wait or Status to track
// it; checkpoints land in the shared parameter server, so the job's models
// are instantly deployable afterwards.
func (s *System) Train(cfg TrainConfig) (*TrainJob, error) {
	return s.train(cfg, "", true)
}

// train is Train with the journal switch: live calls mint an ID and append a
// train_submit record (carrying the defaulted config and resolved model set,
// so replay is deterministic) once the job's containers are launched and
// before the job is listed or trains; replay passes the recorded ID and
// record=false.
func (s *System) train(cfg TrainConfig, forceID string, record bool) (*TrainJob, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("rafiki: training job needs a name")
	}
	cfg.Hyper = cfg.Hyper.withDefaults()
	// Validate the advisor kind before any side effect (ID mint, journal
	// append, container launches), so a bad config never half-applies.
	switch tune.AdvisorKind(cfg.Hyper.Advisor) {
	case tune.RandomSearch, tune.BayesOpt, tune.GridSearch:
	default:
		return nil, fmt.Errorf("rafiki: unknown advisor %q", cfg.Hyper.Advisor)
	}
	ds, err := s.Dataset(cfg.Data)
	if err != nil {
		return nil, err
	}
	if len(cfg.OutputShape) == 1 && cfg.OutputShape[0] != len(ds.Classes) {
		return nil, fmt.Errorf("rafiki: output shape %d != dataset classes %d", cfg.OutputShape[0], len(ds.Classes))
	}
	models := cfg.Models
	if len(models) == 0 {
		models, err = zoo.SelectDiverse(zoo.Task(cfg.Task), 2, 0.06)
		if err != nil {
			return nil, fmt.Errorf("rafiki: model selection: %w", err)
		}
	} else {
		for _, m := range models {
			if _, err := zoo.Lookup(m); err != nil {
				return nil, err
			}
		}
	}

	id := s.mintOrAdopt("train", forceID)
	job := &TrainJob{
		ID:      id,
		Conf:    cfg,
		sys:     s,
		models:  models,
		masters: map[string]*tune.Master{},
	}
	workers, err := job.build(len(ds.Classes))
	if err == nil && record {
		err = s.journalAppend(kindTrainSubmit, trainSubmitRec{ID: id, Conf: cfg, Models: models})
	}
	if err != nil {
		// A Train the cluster cannot hold fails whole: nothing stays
		// launched, listed or journaled.
		job.release()
		return nil, err
	}
	s.mu.Lock()
	s.trainJobs[job.ID] = job
	s.mu.Unlock()
	for _, worker := range workers {
		job.wg.Add(1)
		go func() {
			defer job.wg.Done()
			if err := worker.Run(); err != nil {
				job.mu.Lock()
				job.errs = append(job.errs, err)
				job.mu.Unlock()
			}
		}()
	}
	go func() {
		job.wg.Wait()
		job.finish()
	}()
	return job, nil
}

// build makes each model's advisor, master and tuning workers and launches
// their containers: the master's first, checkpointable because the master
// implements Snapshot/Restore (Section 6.3), then the workers'. The job is
// not yet published, so nothing else reads its masters while they fill.
func (j *TrainJob) build(classes int) ([]*tune.Worker, error) {
	s := j.sys
	var workers []*tune.Worker
	for _, model := range j.models {
		space, err := advisor.CIFAR10ConvNetSpace()
		if err != nil {
			return nil, err
		}
		adv, err := tune.NewAdvisor(tune.AdvisorKind(j.Conf.Hyper.Advisor), space, s.rng.SplitNamed(j.ID+model+"adv"))
		if err != nil {
			return nil, err
		}
		mconf := tune.Config{
			Name:       j.ID + "/" + model,
			Model:      model,
			MaxTrials:  j.Conf.Hyper.MaxTrials,
			CoStudy:    j.Conf.Hyper.CoStudy,
			Delta:      j.Conf.Hyper.Delta,
			Patience:   5,
			MinDelta:   0.001,
			Alpha0:     1.0,
			AlphaDecay: 0.9,
			AlphaMin:   0.05,
		}
		master, err := tune.NewMaster(mconf, adv, s.ps, s.rng.SplitNamed(j.ID+model+"master"))
		if err != nil {
			return nil, err
		}
		j.masters[model] = master
		if _, err := s.cluster.Launch(cluster.Spec{
			Name:       j.ID + "/" + model + "/master",
			Kind:       cluster.KindMaster,
			Job:        j.ID,
			Checkpoint: master,
		}, 0); err != nil {
			return nil, fmt.Errorf("rafiki: launch master: %w", err)
		}
		trainer := surrogate.NewTrainer(trainerFor(model, classes))
		for w := 0; w < s.opts.Workers; w++ {
			name := fmt.Sprintf("%s/%s/worker-%d", j.ID, model, w)
			if _, err := s.cluster.Launch(cluster.Spec{Name: name, Kind: cluster.KindWorker, Job: j.ID}, 0); err != nil {
				return nil, fmt.Errorf("rafiki: launch worker: %w", err)
			}
			workers = append(workers, tune.NewWorker(name, master, trainer, s.ps, s.rng.SplitNamed(name)))
		}
	}
	return workers, nil
}

// release removes every container the job launched.
func (j *TrainJob) release() {
	for _, name := range j.sys.cluster.Containers() {
		if strings.HasPrefix(name, j.ID+"/") {
			_ = j.sys.cluster.Remove(name) // listed just now: it exists
		}
	}
}

// finish is the one-time completion step, raced harmlessly by Wait and the
// monitor goroutine. It builds the final snapshot from the masters and
// journals it in the train_complete record (with the checkpoint blobs)
// *before* the job reads as done: a caller that saw done and deployed
// therefore always lands its deploy record after the completion on the
// ledger, so replay restores checkpoints before any deployment needs them. A
// journal closed mid-write (process shutdown) just loses the completion
// record — the job replays as incomplete and re-trains. Then the job releases
// its containers and drops its masters; from here on it is only its
// snapshot.
func (j *TrainJob) finish() {
	j.completeOnce.Do(func() {
		final := j.Status()
		final.Done = true
		_ = j.sys.journalTrainComplete(j.ID, final)
		j.release()
		j.mu.Lock()
		j.final, j.masters = &final, nil
		j.mu.Unlock()
		// Checkpoint publication: the job's best checkpoints are now in the
		// parameter server, so any deployment serving these architectures
		// has prediction-cache entries describing superseded models.
		j.sys.invalidateCachesForModels(j.models)
	})
}

// invalidateCachesForModels bumps the prediction-cache epoch of every live
// deployment serving one of the given architectures — the event-driven
// invalidation hook for trainer checkpoint publication.
func (s *System) invalidateCachesForModels(models []string) {
	set := make(map[string]struct{}, len(models))
	for _, m := range models {
		set[m] = struct{}{}
	}
	s.mu.Lock()
	jobs := make([]*InferenceJob, 0, len(s.inferJobs))
	for _, j := range s.inferJobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		for _, m := range j.Models {
			if _, ok := set[m.Model]; ok {
				j.invalidateCache()
				break
			}
		}
	}
}

// trainerFor derives the surrogate config for an architecture: the ceiling
// scales with the architecture's ImageNet profile (stronger architectures
// reach higher accuracy on the user's dataset too), and the random-guess
// floor follows the dataset's class count.
func trainerFor(model string, classes int) surrogate.Config {
	cfg := surrogate.DefaultConfig()
	cfg.Classes = classes
	if p, err := zoo.Lookup(model); err == nil {
		lo, hi := 0.698, 0.827 // zoo profile accuracy range
		f := (p.Top1Accuracy - lo) / (hi - lo)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		cfg.Ceiling = 0.90 + 0.05*f
	}
	return cfg
}

// Wait blocks until the job finishes and returns its first error, if any.
func (j *TrainJob) Wait() error {
	j.wg.Wait()
	j.finish() // workers are finished; don't race the monitor goroutine
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.errs) > 0 {
		return j.errs[0]
	}
	return nil
}

// Status reports progress (usable while the job runs). A finished job,
// live or journal-recovered, answers from its final snapshot.
func (j *TrainJob) Status() TrainStatus {
	j.mu.Lock()
	final, masters := j.final, j.masters
	j.mu.Unlock()
	if final != nil {
		st := *final
		st.Models = slices.Clone(final.Models)
		st.BestAccuracy = maps.Clone(final.BestAccuracy)
		return st
	}
	st := TrainStatus{
		JobID:        j.ID,
		Models:       slices.Clone(j.models),
		MaxTrials:    len(j.models) * j.Conf.Hyper.MaxTrials,
		BestAccuracy: map[string]float64{},
	}
	for model, m := range masters {
		st.Finished += m.Finished()
		st.BestAccuracy[model] = m.BestPerf()
	}
	return st
}

// ListTrainJobs reports the status of every submitted training job, ordered
// by job ID — the GET /api/v1/train resource listing.
func (s *System) ListTrainJobs() []TrainStatus {
	s.mu.Lock()
	jobs := make([]*TrainJob, 0, len(s.trainJobs))
	for _, j := range s.trainJobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	out := make([]TrainStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// TrainJobByID returns a submitted training job.
func (s *System) TrainJobByID(id string) (*TrainJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.trainJobs[id]
	if !ok {
		return nil, fmt.Errorf("rafiki: %w: unknown training job %q", ErrNotFound, id)
	}
	return job, nil
}

// ModelInstance identifies a trained, deployable model: its architecture,
// the parameter-server key holding its parameters, and its validation
// accuracy (the paper's "model name and the parameter names for retrieving
// the parameter values from Rafiki's parameter server").
type ModelInstance struct {
	Model         string
	CheckpointKey string
	ParamNames    []string
	Accuracy      float64
}

// GetModels returns the best trained instance of each model in a finished
// training job (Figure 2's rafiki.get_models).
func (s *System) GetModels(trainJobID string) ([]ModelInstance, error) {
	s.mu.Lock()
	job, ok := s.trainJobs[trainJobID]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rafiki: %w: unknown training job %q", ErrNotFound, trainJobID)
	}
	job.mu.Lock()
	done := job.final != nil
	job.mu.Unlock()
	if !done {
		return nil, fmt.Errorf("rafiki: %w: training job %s still running", ErrConflict, trainJobID)
	}
	var out []ModelInstance
	for _, model := range job.models {
		best, err := s.jobBest(trainJobID, model)
		if err != nil {
			return nil, fmt.Errorf("rafiki: no checkpoint for %s: %w", model, err)
		}
		inst := ModelInstance{
			Model:         model,
			CheckpointKey: best.Owner + "/" + best.TrialID,
			Accuracy:      best.Accuracy,
		}
		for _, l := range best.Layers {
			inst.ParamNames = append(inst.ParamNames, l.Name)
		}
		out = append(out, inst)
	}
	return out, nil
}

// jobBest returns the best checkpoint a training job's own study stored for
// model (the study owner is "<jobID>/<model>"), never another job's.
func (s *System) jobBest(jobID, model string) (*ps.Checkpoint, error) {
	return s.ps.BestForOwner(model, jobID+"/"+model)
}

// bestCheckpoint fetches the stored checkpoint backing a model instance.
func (s *System) bestCheckpoint(model string) (*ps.Checkpoint, error) {
	return s.ps.BestForModel(model)
}

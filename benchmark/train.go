package main

import (
	"fmt"
	"runtime"
	"time"

	"rafiki"
)

// train_bayes shape: back-to-back studies on one System, each tuning two
// pinned architectures for studyTrials trials with the Bayesian advisor and
// collaborative tuning, two workers per model. One study is one slice; one
// trial is one operation.
const (
	trainWorkloadName = "train_bayes"
	studyTrials       = 150
	// studyLimit is the wall time a study must finish in for its trials to
	// count towards slo_attainment.
	studyLimit = 3 * time.Second
)

var studyModels = []string{"inception_v3", "resnet_v1_50"}

// trainAccuracyBand is the sanity band for a study's mean best validation
// accuracy: the surrogate's ceilings put a tuned model between these.
var trainAccuracyBand = [2]float64{0.85, 0.97}

// study is one measured study.
type study struct {
	ms, submitMs, cpuUs float64
	finished            int
	accuracy            float64 // mean best validation accuracy over the models
	ok                  bool    // done, full budget spent, one checkpoint per model
	traced              bool
}

// runStudy trains study n to completion. With a tracer it records the study
// as a root span over the Train call and the wait for the workers.
func runStudy(sys *rafiki.System, data string, n int, t *tracer) (study, error) {
	st := study{traced: t != nil}
	root := t.begin("study", 0, uint64(n))
	defer t.end(root)
	cpu0, t0 := cpuTimeNs(), time.Now()
	submit := t.begin("sdk.train_submit", root, uint64(n))
	job, err := sys.Train(rafiki.TrainConfig{
		Name: fmt.Sprintf("study-%d", n), Data: data, Task: rafiki.ImageClassification,
		Hyper:  rafiki.HyperConf{MaxTrials: studyTrials, CoStudy: true, Advisor: "bayes"},
		Models: studyModels,
	})
	t.end(submit)
	if err != nil {
		return st, err
	}
	st.submitMs = since(t0)
	wait := t.begin("sdk.train_wait", root, uint64(n))
	err = job.Wait()
	t.end(wait)
	if err != nil {
		return st, err
	}
	st.ms = since(t0)
	st.cpuUs = float64(cpuTimeNs()-cpu0) / 1e3
	status := job.Status()
	st.finished = status.Finished
	for _, m := range studyModels {
		st.accuracy += status.BestAccuracy[m] / float64(len(studyModels))
	}
	models, err := sys.GetModels(job.ID)
	if err != nil {
		return st, err
	}
	st.ok = status.Done && status.Finished == len(studyModels)*studyTrials && len(models) == len(studyModels)
	for _, m := range models {
		if m.CheckpointKey == "" || m.Accuracy <= 0 {
			st.ok = false
		}
	}
	return st, nil
}

// trainRep is one repetition: a fresh System, the dataset, one warm-up
// study, then studies back to back until the window is used up.
type trainRep struct {
	setupS         float64
	importMs       float64
	studies        []study
	ws             *windowStats
	heapLiveMB     float64 // after a forced collection at the window's end (traced run only)
	goroutinesPeak int
}

// runTrainRep runs one repetition. With a tracer, the studies of the
// window's second half are traced.
func runTrainRep(seed int64, window time.Duration, trace *tracer) (*trainRep, error) {
	rep := &trainRep{}
	t0 := time.Now()
	// Finished studies keep their cluster containers, so the simulated
	// cluster is sized for every study a window can hold.
	sys, err := rafiki.New(rafiki.Options{Seed: seed, Workers: 2, NodeCapacity: 1024})
	if err != nil {
		return nil, err
	}
	defer sys.Close() // no deployment, no journal: nothing to report
	ti := time.Now()
	data, err := sys.ImportImages("food", foodFolders())
	if err != nil {
		return nil, err
	}
	rep.importMs = since(ti)
	if _, err := runStudy(sys, data.Name, 0, nil); err != nil {
		return nil, fmt.Errorf("warm-up study: %w", err)
	}
	rep.setupS = time.Since(t0).Seconds()

	ws := &windowStats{}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	for n := 1; time.Since(start) < window; n++ {
		var t *tracer
		if time.Since(start) >= window/2 {
			t = trace
		}
		st, err := runStudy(sys, data.Name, n, t)
		rep.goroutinesPeak = max(rep.goroutinesPeak, runtime.NumGoroutine())
		if err != nil {
			return nil, err
		}
		rep.studies = append(rep.studies, st)
		ws.counts.attempted += len(studyModels) * studyTrials
		ws.counts.answered += st.finished
		if st.ok {
			ws.counts.correct += st.finished
		}
		if st.ms <= float64(studyLimit.Milliseconds()) {
			ws.counts.within += st.finished
		}
		ws.counts.failed += len(studyModels)*studyTrials - st.finished
		if st.finished == 0 {
			return nil, fmt.Errorf("study %d finished no trial", n)
		}
		ws.thr = append(ws.thr, float64(st.finished)/(st.ms/1e3))
		ws.p50 = append(ws.p50, st.ms)
		ws.cpu = append(ws.cpu, st.cpuUs/float64(st.finished))
	}
	runtime.ReadMemStats(&mem1)
	if trace != nil {
		runtime.GC()
		var live runtime.MemStats
		runtime.ReadMemStats(&live)
		rep.heapLiveMB = float64(live.HeapAlloc) / (1 << 20)
	}
	ops := float64(ws.counts.answered)
	ws.allocsPerOp = float64(mem1.Mallocs-mem0.Mallocs) / ops
	ws.bytesPerOp = float64(mem1.TotalAlloc-mem0.TotalAlloc) / ops
	ws.gcPauseMs = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	rep.ws = ws
	return rep, nil
}

// accuracy is the mean over the studies of their mean best accuracy.
func (r *trainRep) accuracy() float64 {
	sum := 0.0
	for _, s := range r.studies {
		sum += s.accuracy
	}
	return sum / float64(len(r.studies))
}

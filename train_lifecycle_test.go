package rafiki

import (
	"strings"
	"sync"
	"testing"
)

func smallTrain(d *Dataset, name string) TrainConfig {
	return TrainConfig{Name: name, Data: d.Name, Task: ImageClassification,
		Hyper: HyperConf{MaxTrials: 3, CoStudy: true}}
}

// TestListTrainJobsWhileTraining: listing jobs while others are being
// submitted and trained reads only what Train has finished building. Under
// -race this caught Train filling a job's masters after publishing the job.
func TestListTrainJobsWhileTraining(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, st := range sys.ListTrainJobs() {
				if st.Finished > st.MaxTrials {
					t.Errorf("%s: finished %d of %d", st.JobID, st.Finished, st.MaxTrials)
				}
			}
		}
	}()
	var jobs []*TrainJob
	for i := 0; i < 4; i++ {
		job, err := sys.Train(smallTrain(d, "listed"))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, st := range sys.ListTrainJobs() {
		if !st.Done || st.Finished != st.MaxTrials {
			t.Fatalf("%s after Wait: done=%v %d/%d", st.JobID, st.Done, st.Finished, st.MaxTrials)
		}
	}
}

// TestSequentialTrainJobsReleaseContainers: a finished job gives its master
// and worker containers back, so a cluster that holds one job at a time runs
// any number of them back to back.
func TestSequentialTrainJobsReleaseContainers(t *testing.T) {
	// One node of six slots: two models × (master + two workers) fill it.
	sys, err := New(Options{Seed: 42, Nodes: 1, NodeCapacity: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := importFood(t, sys)
	for i := 0; i < 3; i++ {
		job, err := sys.Train(smallTrain(d, "sequential"))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if err := job.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if n := jobContainers(sys, job.ID); n != 0 {
			t.Fatalf("job %d (%s) holds %d containers after Wait", i, job.ID, n)
		}
		if _, err := sys.GetModels(job.ID); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if n := len(sys.ListTrainJobs()); n != 3 {
		t.Fatalf("%d jobs listed, want 3", n)
	}
}

// TestTrainRefusedByCapacityLeavesNothing: a Train the cluster cannot hold
// fails whole. It releases the containers it did launch and is never listed.
func TestTrainRefusedByCapacityLeavesNothing(t *testing.T) {
	// Four slots: the first model's master and workers fit, the second's
	// workers do not.
	sys, err := New(Options{Seed: 42, Nodes: 1, NodeCapacity: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := importFood(t, sys)
	job, err := sys.Train(smallTrain(d, "refused"))
	if err == nil {
		_ = job.Wait()
		t.Fatal("Train on a cluster too small for it should fail")
	}
	if !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("err = %v, want the cluster's capacity refusal", err)
	}
	if jobs := sys.ListTrainJobs(); len(jobs) != 0 {
		t.Fatalf("refused job stays listed: %+v", jobs)
	}
	if names := sysContainers(sys); len(names) != 0 {
		t.Fatalf("refused job left containers %v", names)
	}
}

package rafiki

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rafiki/internal/infer"
)

// jobContainers counts the cluster containers registered under a job ID.
func jobContainers(s *System, jobID string) int {
	n := 0
	for _, name := range s.cluster.Containers() {
		if strings.HasPrefix(name, jobID+"/") {
			n++
		}
	}
	return n
}

// TestInferenceReplicasAndScale deploys a replicated ensemble and resizes it
// through the cluster manager: container registrations and the runtime's
// replica pools must track every scale operation.
func TestInferenceReplicasAndScale(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)

	inf, err := sys.Deploy(DeploymentSpec{Models: models, Replicas: ReplicaBounds{Min: 2}})
	if err != nil {
		t.Fatal(err)
	}
	nm := len(models)
	if got := jobContainers(sys, inf.ID); got != 1+2*nm {
		t.Fatalf("containers = %d, want master + 2 replicas x %d models", got, nm)
	}
	for m, n := range inf.ReplicaCounts() {
		if n != 2 {
			t.Fatalf("model %s replicas = %d, want 2", m, n)
		}
	}

	// Scale everything up, one model down, then everything to 1.
	if err := sys.ScaleInference(inf.ID, "", 3); err != nil {
		t.Fatal(err)
	}
	if got := jobContainers(sys, inf.ID); got != 1+3*nm {
		t.Fatalf("containers after scale-up = %d, want %d", got, 1+3*nm)
	}
	one := models[0].Model
	if err := sys.ScaleInference(inf.ID, one, 1); err != nil {
		t.Fatal(err)
	}
	counts := inf.ReplicaCounts()
	if counts[one] != 1 {
		t.Fatalf("scaled model %s = %d replicas, want 1", one, counts[one])
	}
	if err := sys.ScaleInference(inf.ID, "", 1); err != nil {
		t.Fatal(err)
	}
	if got := jobContainers(sys, inf.ID); got != 1+nm {
		t.Fatalf("containers after scale-down = %d, want %d", got, 1+nm)
	}
	// Queries still flow at the new size.
	if _, err := sys.Query(inf.ID, []byte("still_serving_pizza.jpg")); err != nil {
		t.Fatal(err)
	}

	// Validation.
	if err := sys.ScaleInference("ghost", "", 2); !errors.Is(err, ErrUnknownInferenceJob) {
		t.Fatalf("scale unknown job err = %v", err)
	}
	if err := sys.ScaleInference(inf.ID, "", 0); err == nil {
		t.Fatal("scale to 0 should error")
	}
	if err := sys.ScaleInference(inf.ID, "ghostnet", 2); err == nil {
		t.Fatal("scaling an undeployed model should error")
	}
	if _, err := sys.Deploy(DeploymentSpec{Models: models, Replicas: ReplicaBounds{Min: maxReplicasPerModel + 1}}); err == nil {
		t.Fatal("replicas above the cap should error")
	}
	if _, err := sys.Deploy(DeploymentSpec{Models: models, QueueCap: -1}); err == nil {
		t.Fatal("negative queue cap should error")
	}
}

// TestScaleWhileQueriesInFlight runs scale-up/scale-down concurrently with a
// stream of queries (run under -race): no query may be lost or answered
// incorrectly across pool resizes.
func TestScaleWhileQueriesInFlight(t *testing.T) {
	sys, err := New(Options{Seed: 42, Workers: 2, NodeCapacity: 32, ServeSpeedup: 50})
	if err != nil {
		t.Fatal(err)
	}
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf, err := sys.Deploy(DeploymentSpec{Models: models})
	if err != nil {
		t.Fatal(err)
	}

	const n = 48
	var wg sync.WaitGroup
	errs := make(chan error, n+1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sys.Query(inf.ID, []byte(fmt.Sprintf("scaling_photo_%d_ramen.jpg", i)))
			if err != nil {
				errs <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			if res.Label == "" || len(res.Votes) != len(models) {
				errs <- fmt.Errorf("query %d: bad result %+v", i, res)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, r := range []int{4, 2, 5, 1, 3} {
			if err := sys.ScaleInference(inf.ID, "", r); err != nil {
				errs <- fmt.Errorf("scale to %d: %w", r, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := inf.Stats(); st.Served < n {
		t.Fatalf("served = %d, want >= %d", st.Served, n)
	}
}

// TestStopInference tears a deployment down mid-traffic (run under -race):
// queued queries fail with infer.ErrClosed, later queries see
// ErrUnknownInferenceJob, and every cluster container is released.
func TestStopInference(t *testing.T) {
	sys, err := New(Options{Seed: 42, Workers: 2, NodeCapacity: 16, ServeSpeedup: 50})
	if err != nil {
		t.Fatal(err)
	}
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf, err := sys.Deploy(DeploymentSpec{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	if jobContainers(sys, inf.ID) == 0 {
		t.Fatal("deployment registered no containers")
	}

	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := sys.Query(inf.ID, []byte(fmt.Sprintf("teardown_%d_salad.jpg", i)))
			errs <- err
		}(i)
	}
	time.Sleep(3 * time.Millisecond) // let some queries queue and dispatch
	if err := sys.StopInference(inf.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	served, closed := 0, 0
	for err := range errs {
		switch {
		case err == nil:
			served++
		case errors.Is(err, infer.ErrClosed), errors.Is(err, ErrUnknownInferenceJob):
			closed++
		default:
			t.Fatalf("unexpected teardown error: %v", err)
		}
	}
	if served+closed != n {
		t.Fatalf("served %d + closed %d != %d", served, closed, n)
	}

	// The job is gone: queries 404, a second stop errors, containers freed.
	if _, err := sys.Query(inf.ID, []byte("late.jpg")); !errors.Is(err, ErrUnknownInferenceJob) {
		t.Fatalf("query after stop err = %v, want ErrUnknownInferenceJob", err)
	}
	if err := sys.StopInference(inf.ID); !errors.Is(err, ErrUnknownInferenceJob) {
		t.Fatalf("double stop err = %v, want ErrUnknownInferenceJob", err)
	}
	if got := jobContainers(sys, inf.ID); got != 0 {
		t.Fatalf("%d containers leaked after stop", got)
	}
	// Scaling a stopped job must fail even through a stale handle.
	if err := sys.ScaleInference(inf.ID, "", 2); !errors.Is(err, ErrUnknownInferenceJob) {
		t.Fatalf("scale after stop err = %v", err)
	}
}

// TestReplicaFailureRecovery kills a replica container: serving continues on
// the survivor, and the cluster manager's restart feeds the replica back
// into dispatch.
func TestReplicaFailureRecovery(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf, err := sys.Deploy(DeploymentSpec{Models: models, Replicas: ReplicaBounds{Min: 2}})
	if err != nil {
		t.Fatal(err)
	}

	victim := fmt.Sprintf("%s/%s/replica-0", inf.ID, models[0].Model)
	if err := sys.cluster.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// The surviving replica keeps the model serving.
	if _, err := sys.Query(inf.ID, []byte("degraded_but_alive_pizza.jpg")); err != nil {
		t.Fatal(err)
	}
	// Recovery restarts the container and rejoins the replica.
	recovered, err := sys.cluster.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range recovered {
		if name == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered = %v, want %s", recovered, victim)
	}
	if _, err := sys.Query(inf.ID, []byte("fully_recovered_pizza.jpg")); err != nil {
		t.Fatal(err)
	}
}

// TestInferenceRejectsEmptyClassVocabulary: a dataset with zero classes must
// fail deployment validation instead of panicking (mod-by-zero in truthFor)
// at query time.
func TestInferenceRejectsEmptyClassVocabulary(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)

	sys.mu.Lock()
	sys.datasets[d.Name].Classes = []string{}
	sys.mu.Unlock()
	if _, err := sys.Deploy(DeploymentSpec{Models: models}); err == nil || !strings.Contains(err.Error(), "class vocabulary") {
		t.Fatalf("empty-class deployment err = %v, want class vocabulary validation error", err)
	}
}

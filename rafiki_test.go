package rafiki

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	sys, err := New(Options{Seed: 42, Workers: 2, NodeCapacity: 16, ServeSpeedup: 400})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestNewServingClockOptions: New refuses a serving clock that could never
// reach a deadline (a NaN SLO, a NaN or infinite speedup) instead of booting
// a System whose every query hangs, and still defaults zero and negative
// values.
func TestNewServingClockOptions(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name             string
		slo, speedup     float64
		want             string // error substring; "" means New succeeds
		wantSLO, wantSpd float64
	}{
		{"defaults", 0, 0, "", 0.25, 1},
		{"negative", -1, -3, "", 0.25, 1},
		{"negative infinite speedup", 0.5, -inf, "", 0.5, 1},
		{"nan speedup", 0.25, nan, "ServeSpeedup", 0, 0},
		{"infinite speedup", 0.25, inf, "ServeSpeedup", 0, 0},
		{"nan slo", nan, 10, "ServeSLO", 0, 0},
	}
	for _, tc := range cases {
		sys, err := New(Options{ServeSLO: tc.slo, ServeSpeedup: tc.speedup})
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: New err = %v, want substring %q", tc.name, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: New: %v", tc.name, err)
			continue
		}
		if sys.opts.ServeSLO != tc.wantSLO || sys.opts.ServeSpeedup != tc.wantSpd {
			t.Errorf("%s: ServeSLO, ServeSpeedup = %v, %v, want %v, %v", tc.name,
				sys.opts.ServeSLO, sys.opts.ServeSpeedup, tc.wantSLO, tc.wantSpd)
		}
	}
}

func importFood(t *testing.T, sys *System) *Dataset {
	t.Helper()
	d, err := sys.ImportImages("food", map[string]int{
		"pizza": 60, "ramen": 60, "salad": 60, "burger": 60, "sushi": 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func trainFood(t *testing.T, sys *System, d *Dataset) *TrainJob {
	t.Helper()
	job, err := sys.Train(TrainConfig{
		Name:        "train-food",
		Data:        d.Name,
		Task:        ImageClassification,
		InputShape:  []int{3, 256, 256},
		OutputShape: []int{len(d.Classes)},
		Hyper:       HyperConf{MaxTrials: 10, CoStudy: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	return job
}

func TestImportImages(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	if len(d.Classes) != 5 {
		t.Fatalf("classes = %v", d.Classes)
	}
	if d.NumTrain != 5*48 || d.NumValid != 5*12 {
		t.Fatalf("split = %d/%d", d.NumTrain, d.NumValid)
	}
	if _, err := sys.Dataset("food"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Dataset("ghost"); err == nil {
		t.Fatal("unknown dataset should error")
	}
	if _, err := sys.ImportImages("bad", nil); err == nil {
		t.Fatal("empty import should error")
	}
}

func TestTasksCatalogue(t *testing.T) {
	sys := newSystem(t)
	tasks := sys.Tasks()
	if len(tasks) != 3 {
		t.Fatalf("tasks = %v", tasks)
	}
	if len(tasks[ImageClassification]) == 0 {
		t.Fatal("image classification has no models")
	}
}

func TestTrainValidation(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	if _, err := sys.Train(TrainConfig{Data: d.Name, Task: ImageClassification}); err == nil {
		t.Fatal("unnamed job should error")
	}
	if _, err := sys.Train(TrainConfig{Name: "x", Data: "ghost", Task: ImageClassification}); err == nil {
		t.Fatal("unknown dataset should error")
	}
	if _, err := sys.Train(TrainConfig{Name: "x", Data: d.Name, Task: "Nope"}); err == nil {
		t.Fatal("unknown task should error")
	}
	if _, err := sys.Train(TrainConfig{Name: "x", Data: d.Name, Task: ImageClassification, OutputShape: []int{99}}); err == nil {
		t.Fatal("mismatched output shape should error")
	}
	if _, err := sys.Train(TrainConfig{Name: "x", Data: d.Name, Task: ImageClassification, Models: []string{"ghostnet"}}); err == nil {
		t.Fatal("unknown pinned model should error")
	}
	if _, err := sys.Train(TrainConfig{Name: "x", Data: d.Name, Task: ImageClassification, Hyper: HyperConf{Advisor: "annealing"}}); err == nil {
		t.Fatal("unknown advisor should error")
	}
}

func TestTrainEndToEnd(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)

	st := job.Status()
	if !st.Done {
		t.Fatal("job should be done after Wait")
	}
	if len(st.Models) == 0 {
		t.Fatal("no models selected")
	}
	if st.Finished != len(st.Models)*10 {
		t.Fatalf("finished = %d, want %d", st.Finished, len(st.Models)*10)
	}
	for m, acc := range st.BestAccuracy {
		if acc < 0.3 {
			t.Fatalf("model %s best accuracy %v implausibly low", m, acc)
		}
	}
	// Model selection must be architecture-diverse (Section 4.1).
	fams := map[string]bool{}
	for _, m := range st.Models {
		fam := strings.SplitN(m, "_", 2)[0]
		if fams[fam] {
			t.Fatalf("selected two models of family %s: %v", fam, st.Models)
		}
		fams[fam] = true
	}
	// The finished job released the master and workers it ran per model.
	if n := jobContainers(sys, job.ID); n != 0 {
		t.Fatalf("containers = %d after Wait, want 0", n)
	}
}

func sysContainers(s *System) []string { return s.cluster.Containers() }

func TestGetModelsAndInference(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)

	if _, err := sys.GetModels("ghost"); err == nil {
		t.Fatal("unknown job should error")
	}
	models, err := sys.GetModels(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatal("no trained models")
	}
	for _, m := range models {
		if m.Accuracy <= 0 || m.CheckpointKey == "" || len(m.ParamNames) == 0 {
			t.Fatalf("model instance incomplete: %+v", m)
		}
	}

	inf, err := sys.Deploy(DeploymentSpec{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	if len(inf.Classes) != len(d.Classes) {
		t.Fatalf("inference classes = %v", inf.Classes)
	}
	if _, err := sys.Deploy(DeploymentSpec{}); err == nil {
		t.Fatal("empty deployment should error")
	}
	if _, err := sys.InferenceJobByID("ghost"); err == nil {
		t.Fatal("unknown inference job should error")
	}
}

func TestQuerySemantics(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf, _ := sys.Deploy(DeploymentSpec{Models: models})

	// Deterministic: same payload, same answer.
	a, err := sys.Query(inf.ID, []byte("photo_of_pizza_123.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sys.Query(inf.ID, []byte("photo_of_pizza_123.jpg"))
	if a.Label != b.Label {
		t.Fatal("query not deterministic")
	}
	if a.Confidence <= 0 || a.Confidence > 1 {
		t.Fatalf("confidence = %v", a.Confidence)
	}
	if len(a.Votes) != len(models) {
		t.Fatalf("votes = %v", a.Votes)
	}

	// Grounded truth: payloads embedding a class name must be classified
	// correctly at roughly the ensemble accuracy.
	correct, n := 0, 300
	for i := 0; i < n; i++ {
		res, err := sys.Query(inf.ID, []byte("img_"+string(rune('a'+i%26))+"_ramen_"+string(rune('0'+i%10))))
		if err != nil {
			t.Fatal(err)
		}
		if res.Label == "ramen" {
			correct++
		}
	}
	acc := float64(correct) / float64(n)
	if acc < 0.75 {
		t.Fatalf("grounded query accuracy = %v, want >= ~the trained accuracy", acc)
	}
	if acc == 1.0 {
		t.Fatal("simulated predictions should not be perfect")
	}

	// Errors.
	if _, err := sys.Query("ghost", []byte("x")); err == nil {
		t.Fatal("unknown job should error")
	}
	if _, err := sys.Query(inf.ID, nil); err == nil {
		t.Fatal("empty payload should error")
	}
}

// TestConcurrentQueriesShareBatches drives one deployment from many
// goroutines (run under -race): the runtime must answer every caller with
// its own deterministic prediction while the serving policy groups the
// concurrent requests into shared batches.
func TestConcurrentQueriesShareBatches(t *testing.T) {
	// Lower speedup than newSystem's: models stay busy for milliseconds of
	// wall time, so the goroutines' queries reliably overlap into shared
	// batches even under heavy scheduler load.
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

	const n = 60
	results := make([]*QueryResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sys.Query(inf.ID, []byte(fmt.Sprintf("batch_photo_%d_pizza.jpg", i)))
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if len(results[i].Votes) != len(models) {
			t.Fatalf("query %d votes = %v", i, results[i].Votes)
		}
	}
	// Batched answers must equal the sequential answers for the same payloads.
	for i := 0; i < n; i += 17 {
		again, err := sys.Query(inf.ID, []byte(fmt.Sprintf("batch_photo_%d_pizza.jpg", i)))
		if err != nil {
			t.Fatal(err)
		}
		if again.Label != results[i].Label {
			t.Fatalf("query %d not stable across batchings: %q vs %q", i, again.Label, results[i].Label)
		}
	}

	st := inf.Stats()
	if st.Served < n || st.Queries < n {
		t.Fatalf("stats = %+v, want ≥ %d served", st, n)
	}
	if st.Dispatches >= n {
		t.Fatalf("dispatches = %d for %d concurrent queries: no batching", st.Dispatches, n)
	}
	if st.P50Latency <= 0 || st.P99Latency < st.P50Latency {
		t.Fatalf("latency stats inconsistent: %+v", st)
	}
}

// TestGetModelsScopedToJob trains one architecture twice: a long job A, then
// a one-trial job B. B's instances must name B's own checkpoints — keys that
// resolve through the parameter server to checkpoints B's study owns, at an
// accuracy B reached — even though A's are more accurate.
func TestGetModelsScopedToJob(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	train := func(name string, trials int) *TrainJob {
		job, err := sys.Train(TrainConfig{
			Name: name, Data: d.Name, Task: ImageClassification,
			Hyper:  HyperConf{MaxTrials: trials, CoStudy: true},
			Models: []string{"inception_v3"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		return job
	}
	a := train("a", 40)
	b := train("b", 1)
	for _, job := range []*TrainJob{a, b} {
		models, err := sys.GetModels(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			c, _, err := sys.ps.Get(m.CheckpointKey)
			if err != nil {
				t.Fatalf("%s: key %s does not resolve: %v", job.ID, m.CheckpointKey, err)
			}
			if owner := job.ID + "/" + m.Model; c.Owner != owner || c.Accuracy != m.Accuracy {
				t.Fatalf("%s: key %s holds owner %s accuracy %v, instance says %v (want owner %s)",
					job.ID, m.CheckpointKey, c.Owner, c.Accuracy, m.Accuracy, owner)
			}
			if best := job.Status().BestAccuracy[m.Model]; m.Accuracy > best {
				t.Fatalf("%s: instance accuracy %v beats the job's best %v", job.ID, m.Accuracy, best)
			}
		}
	}
}

func TestGetModelsWhileRunning(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job, err := sys.Train(TrainConfig{
		Name: "slow", Data: d.Name, Task: ImageClassification,
		Hyper: HyperConf{MaxTrials: 200, CoStudy: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Either it's still running (error expected) or it already finished;
	// both are legal — only "running -> error" is asserted.
	if _, err := sys.GetModels(job.ID); err == nil {
		st := job.Status()
		if !st.Done {
			t.Fatal("GetModels on a running job should error")
		}
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.GetModels(job.ID); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTrainOnFreshSystem: REST serves POST /train concurrently, and
// each Train splits the System's seed stream for its advisors, masters and
// workers. The first split must not race with another (run under -race).
func TestConcurrentTrainOnFreshSystem(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	jobs := make([]*TrainJob, 2)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i], errs[i] = sys.Train(TrainConfig{
				Name: fmt.Sprintf("c%d", i), Data: d.Name, Task: ImageClassification,
				Hyper:  HyperConf{MaxTrials: 2, Advisor: "bayes"},
				Models: []string{"inception_v3"},
			})
		}(i)
	}
	wg.Wait()
	for i, job := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEnsembleConfidence(t *testing.T) {
	if c := ensembleConfidence(nil); c != 0 {
		t.Fatalf("empty = %v", c)
	}
	single := ensembleConfidence([]float64{0.8})
	if single != 0.8 {
		t.Fatalf("single = %v", single)
	}
	three := ensembleConfidence([]float64{0.8, 0.78, 0.8})
	if three <= single || three > 0.99 {
		t.Fatalf("ensemble confidence = %v, want boosted above %v", three, single)
	}
}

package rafiki

// Integration tests spanning the substrates: failure recovery across the
// cluster manager, training masters and parameter server (Section 6.3);
// instant deployment through the shared parameter server (Section 3); and
// the storage path under datanode failures.

import (
	"strings"
	"testing"

	"rafiki/internal/advisor"
	"rafiki/internal/cluster"
	"rafiki/internal/ps"
	"rafiki/internal/sim"
	"rafiki/internal/store"
	"rafiki/internal/surrogate"
	"rafiki/internal/tune"
)

// TestMasterFailureRecoveryMidStudy kills the training master halfway
// through a study, restores it from its cluster checkpoint, and verifies the
// study completes with the pre-failure progress intact — Section 6.3's
// failure-recovery path, end to end.
func TestMasterFailureRecoveryMidStudy(t *testing.T) {
	space, err := advisor.CIFAR10ConvNetSpace()
	if err != nil {
		t.Fatal(err)
	}
	pserver := ps.New(4, nil)
	conf := tune.DefaultConfig("recovery-study", true)
	conf.MaxTrials = 16

	master, err := tune.NewMaster(conf, advisor.NewRandomAdvisor(space, sim.NewRNG(1)), pserver, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	mgr := cluster.NewManager(10)
	if err := mgr.AddNode("A", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Launch(cluster.Spec{
		Name: "master", Kind: cluster.KindMaster, Job: "recovery", Checkpoint: master,
	}, 0); err != nil {
		t.Fatal(err)
	}

	trainer := surrogate.NewTrainer(surrogate.DefaultConfig())
	worker := tune.NewWorker("w0", master, trainer, pserver, sim.NewRNG(3))

	// First half of the study, then a periodic checkpoint.
	for i := 0; i < 8; i++ {
		if _, err := worker.RunOneTrial(); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	preBest := master.BestPerf()
	preFinished := master.Finished()

	// The master dies; the manager recovers and restores it.
	if err := mgr.Kill("master"); err != nil {
		t.Fatal(err)
	}
	recovered, err := mgr.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != "master" {
		t.Fatalf("recovered = %v", recovered)
	}
	if master.BestPerf() != preBest || master.Finished() != preFinished {
		t.Fatalf("state lost: best %v->%v finished %d->%d",
			preBest, master.BestPerf(), preFinished, master.Finished())
	}

	// The study finishes on the restored master.
	if err := worker.Run(); err != nil {
		t.Fatal(err)
	}
	if master.Finished() != conf.MaxTrials {
		t.Fatalf("finished = %d, want %d", master.Finished(), conf.MaxTrials)
	}
	if master.BestPerf() < preBest {
		t.Fatal("best accuracy regressed after recovery")
	}
}

// TestInstantDeploymentSharedPS verifies the paper's unified-architecture
// claim: the moment training finishes, the inference service can deploy the
// models with no copy step, because both services share the parameter
// server.
func TestInstantDeploymentSharedPS(t *testing.T) {
	sys, err := New(Options{Seed: 21, Workers: 2, ServeSpeedup: 200})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.ImportImages("plants", map[string]int{"rose": 50, "tulip": 50, "iris": 50})
	if err != nil {
		t.Fatal(err)
	}
	job, err := sys.Train(TrainConfig{
		Name: "t", Data: d.Name, Task: ImageClassification,
		Hyper: HyperConf{MaxTrials: 8, CoStudy: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	models, err := sys.GetModels(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Deploy and query immediately; every model instance's parameters must
	// already be resident in the PS.
	inf, err := sys.Deploy(DeploymentSpec{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(inf.ID, []byte("a_rose_by_any_other_name.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "rose" && res.Confidence <= 0 {
		t.Fatalf("query result = %+v", res)
	}
}

// TestTrainingSurvivesDatanodeFailure imports a dataset, kills a datanode,
// and verifies the dataset remains loadable (replication) and training
// proceeds.
func TestTrainingSurvivesDatanodeFailure(t *testing.T) {
	fs, err := store.NewFS(3, 1<<16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.ImportImages(fs, "food", map[string]int{"a": 100, "b": 100}, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := fs.KillDatanode("dn-0"); err != nil {
		t.Fatal(err)
	}
	ds, err := store.LoadDataset(fs, "food")
	if err != nil {
		t.Fatalf("dataset unreadable after datanode failure: %v", err)
	}
	if len(ds.Train)+len(ds.Valid) != 200 {
		t.Fatalf("dataset corrupted: %d examples", len(ds.Train)+len(ds.Valid))
	}
	if _, err := fs.ReReplicate(); err != nil {
		t.Fatal(err)
	}
}

// TestParameterServerSpillDuringTraining trains, spills cold checkpoints to
// the block store, and verifies warm starts keep working through the cold
// tier (Section 6.2's caching behaviour).
func TestParameterServerSpillDuringTraining(t *testing.T) {
	fs, err := store.NewFS(2, 1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	pserver := ps.New(4, fs)
	space, err := advisor.CIFAR10ConvNetSpace()
	if err != nil {
		t.Fatal(err)
	}
	conf := tune.DefaultConfig("spill-study", true)
	conf.MaxTrials = 10
	master, err := tune.NewMaster(conf, advisor.NewRandomAdvisor(space, sim.NewRNG(4)), pserver, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	trainer := surrogate.NewTrainer(surrogate.DefaultConfig())
	worker := tune.NewWorker("w", master, trainer, pserver, sim.NewRNG(6))
	for i := 0; i < 5; i++ {
		if _, err := worker.RunOneTrial(); err != nil {
			t.Fatal(err)
		}
	}
	// Everything spills cold; the remaining trials must transparently
	// reload warm-start checkpoints from the block store.
	if _, err := pserver.SpillCold(1 << 30); err != nil {
		t.Fatal(err)
	}
	if pserver.HotCount() != 0 && len(pserver.Keys()) > 0 {
		t.Fatalf("spill incomplete: %d hot", pserver.HotCount())
	}
	if err := worker.Run(); err != nil {
		t.Fatal(err)
	}
	if master.Finished() != conf.MaxTrials {
		t.Fatalf("finished = %d", master.Finished())
	}
}

// TestSentimentAnalysisWorkflow exercises a second task end to end: the
// catalogue's sentiment models train and serve a two-class text problem.
func TestSentimentAnalysisWorkflow(t *testing.T) {
	sys, err := New(Options{Seed: 31, Workers: 2, ServeSpeedup: 200})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.ImportImages("reviews", map[string]int{"negative": 100, "positive": 100})
	if err != nil {
		t.Fatal(err)
	}
	job, err := sys.Train(TrainConfig{
		Name: "sentiment", Data: d.Name, Task: SentimentAnalysis,
		OutputShape: []int{2},
		Hyper:       HyperConf{MaxTrials: 6, CoStudy: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	for _, m := range st.Models {
		if !strings.Contains("temporal_cnn fasttext character_rnn", m) {
			t.Fatalf("unexpected sentiment model %s", m)
		}
	}
	models, err := sys.GetModels(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := sys.Deploy(DeploymentSpec{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(inf.ID, []byte("the product was great, positive experience overall"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "positive" && res.Label != "negative" {
		t.Fatalf("label = %s", res.Label)
	}
}

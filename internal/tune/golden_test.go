package tune

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"rafiki/internal/advisor"
	"rafiki/internal/ps"
	"rafiki/internal/sim"
	"rafiki/internal/surrogate"
)

// The pins below were recorded from the two study drivers (RunSim over
// virtual time, Worker.Run live with one worker) before they were folded into
// one trial loop: the same seeds must keep producing the same trials, bit for
// bit, whatever drives the protocol.

// archConf is a CoStudy over the CIFAR-10 space with a depth knob, so warm
// starts are shape-matched and checkpoints carry per-depth layers.
func archConf(t *testing.T, name string, trials int) (Config, *advisor.HyperSpace) {
	t.Helper()
	space := testSpace(t)
	if err := space.AddRangeKnob("num_layers", advisor.Int, 4, 12,
		advisor.WithGroup(advisor.GroupArchitecture)); err != nil {
		t.Fatal(err)
	}
	conf := DefaultConfig(name, true)
	conf.MaxTrials = trials
	conf.ArchKnob = "num_layers"
	return conf, space
}

// renderHistory prints one line per finished trial: its ID, worker, epochs,
// the bits of its final accuracy, whether it warm-started, and its virtual
// start and end.
func renderHistory(b *strings.Builder, label string, hist []TrialRecord) {
	for _, r := range hist {
		fmt.Fprintf(b, "%s trial %d %s %s epochs=%d acc=%#016x warm=%t start=%#016x end=%#016x\n",
			label, r.Index, r.TrialID, r.Worker, r.Epochs, math.Float64bits(r.Accuracy), r.WarmStart,
			math.Float64bits(r.Start), math.Float64bits(r.End))
	}
}

func renderSim(t *testing.T, label string, opt SimOptions) string {
	t.Helper()
	res, err := RunSim(opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var b strings.Builder
	renderHistory(&b, label, res.History)
	fmt.Fprintf(&b, "%s wall=%#016x best=%#016x\n", label, math.Float64bits(res.WallSeconds), math.Float64bits(res.BestAccuracy()))
	for _, p := range res.BestSoFar.Points() {
		fmt.Fprintf(&b, "%s best-so-far t=%#016x v=%#016x\n", label, math.Float64bits(p.T), math.Float64bits(p.V))
	}
	for _, p := range res.BestByEpochs.Points() {
		fmt.Fprintf(&b, "%s best-by-epochs t=%#016x v=%#016x\n", label, math.Float64bits(p.T), math.Float64bits(p.V))
	}
	return b.String()
}

// renderLive runs a one-worker live study to completion and prints its
// history and the best checkpoint it left in the parameter server.
func renderLive(t *testing.T, label string, conf Config, adv advisor.Advisor, seed int64) string {
	t.Helper()
	pserver := ps.New(4, nil)
	m, err := NewMaster(conf, adv, pserver, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker("w0", m, surrogate.NewTrainer(surrogate.DefaultConfig()), pserver, sim.NewRNG(seed+1))
	if err := w.Run(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var b strings.Builder
	renderHistory(&b, label, m.History())
	best, err := pserver.BestForModel(conf.Model)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fmt.Fprintf(&b, "%s checkpoint %s/%s acc=%#016x quality=%#016x layers=%d\n", label,
		best.Owner, best.TrialID, math.Float64bits(best.Accuracy), math.Float64bits(best.Quality), len(best.Layers))
	return b.String()
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	for i := 0; i < len(lines) && i < len(want); i++ {
		if lines[i] != want[i] {
			t.Fatalf("%s line %d:\n got    %s\n golden %s", path, i+1, lines[i], want[i])
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("%s: %d lines, golden has %d", path, len(lines), len(want))
	}
}

// TestRunSimMatchesGolden pins seeded virtual-time studies: random and
// Bayesian search under CoStudy (kPut and kStop directives, warm starts), a
// plain Study (the final kPut), a grid study, and architecture tuning.
func TestRunSimMatchesGolden(t *testing.T) {
	arch, archSpace := archConf(t, "golden-arch", 16)
	got := renderSim(t, "random-costudy", SimOptions{Conf: smallConf(true, 24), Advisor: RandomSearch, Workers: 3, Seed: 7}) +
		renderSim(t, "bayes-costudy", SimOptions{Conf: smallConf(true, 16), Advisor: BayesOpt, Workers: 2, Seed: 11}) +
		renderSim(t, "random-study", SimOptions{Conf: smallConf(false, 12), Advisor: RandomSearch, Workers: 2, Seed: 13}) +
		renderSim(t, "grid-costudy", SimOptions{Conf: smallConf(true, 8), Advisor: GridSearch, Workers: 2, Seed: 17}) +
		renderSim(t, "arch-costudy", SimOptions{Conf: arch, Advisor: RandomSearch, Workers: 3, Seed: 19, Space: archSpace})
	checkGolden(t, "testdata/runsim_golden.txt", got)
}

// TestWorkerRunMatchesGolden pins one-worker live studies, which are
// deterministic: a CoStudy with architecture tuning and a Bayesian Study.
func TestWorkerRunMatchesGolden(t *testing.T) {
	arch, archSpace := archConf(t, "golden-live-arch", 14)
	got := renderLive(t, "live-arch-costudy", arch, advisor.NewRandomAdvisor(archSpace, sim.NewRNG(23)), 29) +
		renderLive(t, "live-bayes-study", smallConf(false, 12), advisor.NewBayesAdvisor(testSpace(t), sim.NewRNG(31)), 37)
	checkGolden(t, "testdata/worker_golden.txt", got)
}

package rafiki

// Benchmark harness: one testing.B target per table/figure of the paper's
// evaluation (Section 7), each regenerating the figure at QuickScale via
// internal/exp and reporting its headline numbers as custom metrics, plus
// BenchmarkSubmit on the serving runtime's submit path alone and
// BenchmarkSubmitWait on its submit → serve → wait round trip.
// cmd/rafiki-bench prints the same series at full scale. End-to-end
// serving and training performance is measured by the benchmark/ module.
//
// Run all with:
//
//	go test -bench=. -benchmem
//
// or a single figure with e.g.:
//
//	go test -bench=BenchmarkFig8RandomTuning

import (
	"testing"
	"time"

	"rafiki/internal/ensemble"
	"rafiki/internal/exp"
	"rafiki/internal/infer"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// report pushes selected summary values into the benchmark output.
func report(b *testing.B, fig *exp.Figure, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := fig.Summary[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// benchDeployment is the three-model ensemble the serving benchmarks run.
func benchDeployment(b *testing.B) *infer.Deployment {
	d, err := infer.NewDeployment(
		[]string{"inception_v3", "inception_v4", "inception_resnet_v2"},
		[]int{1, 2, 4, 8, 16}, 0.25, 1)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchCombine is the serving benchmarks' trivial combiner.
func benchCombine(ids []uint64, _ []any, _ []string, _ [][]any) ([]any, error) {
	return make([]any, len(ids)), nil
}

// benchWaitPolicy never dispatches, so BenchmarkSubmit measures the submit
// path in isolation: admission into the FIFO and the decision-point trigger —
// none of the backend or completion work.
type benchWaitPolicy struct{}

func (benchWaitPolicy) Name() string                     { return "bench-wait" }
func (benchWaitPolicy) Decide(*infer.State) infer.Action { return infer.Action{Wait: true} }
func (benchWaitPolicy) Feedback(float64)                 {}

// BenchmarkSubmit drives eight concurrent submitters against the serving
// runtime and reports accepted submissions per wall second. Every submission
// takes the FIFO's lock once and shares a coalesced decision sweep.
// Run with a bounded iteration count (the wait policy keeps the backlog):
//
//	go test . -run none -bench '^BenchmarkSubmit$' -benchtime 20000x
func BenchmarkSubmit(b *testing.B) {
	d := benchDeployment(b)
	rt, err := infer.NewRuntime(d, benchWaitPolicy{},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200),
		benchCombine,
		infer.RuntimeConfig{
			Timeline: &sim.WallTimeline{},
			QueueCap: 1 << 30,
		})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	payload := []byte("q")
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := rt.Submit(payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "submitted-qps")
	}
}

// BenchmarkSubmitWait times the whole completion path BenchmarkSubmit
// leaves out: eight concurrent callers each Submit, Wait and Release, so
// every request is batched by SyncAll, run on the paced SimBackend (profiled
// latencies compressed 10000×), combined and resolved. It reports served
// requests per wall second. Run with a bounded iteration count:
//
//	go test . -run none -bench BenchmarkSubmitWait -benchtime 20000x
func BenchmarkSubmitWait(b *testing.B) {
	d := benchDeployment(b)
	rt, err := infer.NewRuntime(d, &infer.SyncAll{D: d},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200),
		benchCombine,
		infer.RuntimeConfig{
			Timeline: &sim.WallTimeline{Speedup: 10000},
			Backend:  &infer.SimBackend{},
		})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	payload := []byte("q")
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f, err := rt.Submit(payload)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := f.Wait(); err != nil {
				b.Error(err)
				return
			}
			f.Release()
		}
	})
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "served-qps")
	}
}

func BenchmarkFig2TaskRegistry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := exp.Fig2Registry()
		report(b, fig, "models_ImageClassification")
	}
}

func BenchmarkFig3ModelProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := exp.Fig3()
		report(b, fig, "best_accuracy", "iv3_c64")
	}
}

func BenchmarkTable1HyperSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := exp.Table1()
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "knobs")
	}
}

func BenchmarkFig6Ensemble(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig6(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "best_single", "all_four", "gain")
	}
}

func BenchmarkFig8RandomTuning(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig8(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "study_best", "costudy_best", "study_high_trials", "costudy_high_trials")
	}
}

func BenchmarkFig9BayesTuning(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig9(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "study_best", "costudy_best")
	}
}

func BenchmarkFig10SingleMax(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig10(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "greedy_overdue", "rl_overdue", "greedy_dropped", "rl_dropped")
	}
}

func BenchmarkFig11Scalability(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig11(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "speedup_8w", "wall_minutes_1w", "wall_minutes_8w")
	}
}

func BenchmarkFig13SingleMin(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig13(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "greedy_overdue", "rl_overdue", "greedy_dropped", "rl_dropped")
	}
}

func BenchmarkFig14MultiMin(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig14(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "baseline_overdue", "rl_overdue", "baseline_dropped", "rl_dropped", "baseline_accuracy", "rl_accuracy")
	}
}

func BenchmarkFig15MultiMax(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig15(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "baseline_overdue", "rl_overdue", "baseline_dropped", "rl_dropped", "baseline_accuracy", "rl_accuracy")
	}
}

func BenchmarkFig16BetaTradeoff(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig16(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "accuracy_beta0", "accuracy_beta1", "overdue_beta0", "overdue_beta1")
	}
}

func BenchmarkAblationTieBreak(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.AblationTieBreak(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "best_rule", "random_rule")
	}
}

func BenchmarkAblationAlphaGreedy(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.AblationAlphaGreedy(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "alpha_greedy_best", "always_warm_best")
	}
}

func BenchmarkAblationBackoff(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.AblationBackoff(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "overdue_delta_0.0", "overdue_delta_0.1", "overdue_delta_0.3")
	}
}

func BenchmarkAblationWorkload(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		fig, err := exp.AblationWorkload(sc)
		if err != nil {
			b.Fatal(err)
		}
		report(b, fig, "over_fraction", "peak_ratio")
	}
}

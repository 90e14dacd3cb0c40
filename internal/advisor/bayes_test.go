package advisor

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"testing"
	_ "unsafe" // go:linkname to linalg's CPU gate

	"rafiki/internal/sim"
)

// vectorKernels is linalg's CPU gate. Tests flip it so that the portable
// loops and the vector kernels run in one process.
//
//go:linkname vectorKernels rafiki/internal/linalg.useVector
var vectorKernels bool

// onBothPaths runs f on the portable loops and then on the vector kernels,
// skipping the vector half where the CPU gate is off.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	vector := vectorKernels
	t.Cleanup(func() { vectorKernels = vector })
	t.Run("portable", func(t *testing.T) {
		vectorKernels = false
		f(t)
	})
	t.Run("vector", func(t *testing.T) {
		if !vector {
			t.Skip("vector kernels off: not amd64, purego build, no AVX2+FMA, or GODEBUG moved math.Exp off FMA")
		}
		vectorKernels = true
		f(t)
	})
}

// goldenSpace is the Section 7.1.1 space (log knobs, a dependency and a
// post-hook that draws nothing but rewrites a value) plus a categorical knob,
// so the study below exercises every encoding the advisor has.
func goldenSpace(t testing.TB) *HyperSpace {
	t.Helper()
	h, err := CIFAR10ConvNetSpace()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddCategoricalKnob("opt", String, []string{"sgd", "adam", "rmsprop"}); err != nil {
		t.Fatal(err)
	}
	return h
}

// goldenResponse is a smooth deterministic stand-in for validation accuracy.
func goldenResponse(tr *Trial) float64 {
	lr := math.Log10(tr.Params["learning_rate"].Num)
	p := 0.93 - 0.02*(lr+2)*(lr+2) - 0.1*math.Pow(tr.Params["momentum"].Num-0.9, 2) -
		0.05*math.Pow(tr.Params["dropout"].Num-0.3, 2) - 0.01*tr.Params["lr_decay"].Num
	if tr.Params["opt"].Str == "adam" {
		p += 0.01
	}
	return p
}

// trialPrint hashes a trial's ID and exact parameter values.
func trialPrint(tr *Trial) uint32 {
	names := make([]string, 0, len(tr.Params))
	for n := range tr.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New32a()
	fmt.Fprint(h, tr.ID)
	for _, n := range names {
		fmt.Fprintf(h, "|%s=%v", n, tr.Params[n])
	}
	return h.Sum32()
}

// goldenStudy runs a sequential Next/Collect study and fingerprints every
// proposal.
func goldenStudy(t testing.TB, trials int) []uint32 {
	t.Helper()
	return seededStudy(t, trials, 20180607)
}

// seededStudy is goldenStudy's study from the given seed.
func seededStudy(t testing.TB, trials int, seed int64) []uint32 {
	t.Helper()
	adv := NewBayesAdvisor(goldenSpace(t), sim.NewRNG(seed))
	prints := make([]uint32, trials)
	for i := range prints {
		tr, err := adv.Next("w")
		if err != nil {
			t.Fatal(err)
		}
		prints[i] = trialPrint(tr)
		adv.Collect("w", tr, goldenResponse(tr))
	}
	return prints
}

// goldenPrints are the proposals of goldenStudy at the commit before the
// advisor's O(n²) rewrite (59a71ca), pinned there before the code was touched.
var goldenPrints = []uint32{
	0x1ca6b70c, 0x7587e716, 0x61c69568, 0x1a928d47, 0x867ce72e, 0x27726d0b, 0x8fa85845, 0xa2a7db34,
	0x680783d7, 0xe175447c, 0x78469ef0, 0xc8193fca, 0xa9541f39, 0x0045422e, 0xefed6a54, 0xb788ee2c,
	0x74b3162a, 0xf37d01f9, 0xa8f3eace, 0x666ce3ec, 0x52e38442, 0x4a287684, 0xac578ee0, 0xbf321fed,
	0x6ef6d360, 0x22e0f8cc, 0xbf9af59a, 0xdd8ae4a8, 0xe486d9d8, 0x23636e61, 0x352c3429, 0x6894e709,
	0x481a5ad8, 0xdb22f7ad, 0xd8b958cf, 0xb2c93728, 0x694e5cf5, 0xc9fc5e12, 0xc7030d7d, 0xb4d23cad,
}

// TestBayesStudyMatchesGolden: the rewrite draws the same candidates in the
// same order and ranks them the same way, so a seeded sequential study
// proposes exactly the trials it did before, run after run, on either path
// through linalg's kernels.
func TestBayesStudyMatchesGolden(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		for run := 0; run < 2; run++ {
			for i, p := range goldenStudy(t, len(goldenPrints)) {
				if p != goldenPrints[i] {
					t.Fatalf("run %d: proposal %d has print %#08x, golden %#08x", run, i, p, goldenPrints[i])
				}
			}
		}
	})
}

// TestBayesStudyVectorMatchesPortable: a whole 150-trial sequential study,
// the length of one the end-to-end train_bayes workload runs, proposes the
// same trials on the vector kernels as on the portable loops.
func TestBayesStudyVectorMatchesPortable(t *testing.T) {
	if !vectorKernels {
		t.Skip("vector kernels off: not amd64, purego build, no AVX2+FMA, or GODEBUG moved math.Exp off FMA")
	}
	t.Cleanup(func() { vectorKernels = true })
	for _, seed := range []int64{1, 2, 3} {
		vectorKernels = false
		portable := seededStudy(t, 150, seed)
		vectorKernels = true
		if vector := seededStudy(t, 150, seed); !slices.Equal(vector, portable) {
			i := 0
			for vector[i] == portable[i] {
				i++
			}
			t.Fatalf("seed %d: proposal %d has print %#08x on the vector path, %#08x on the portable", seed, i, vector[i], portable[i])
		}
	}
}

// TestBayesRefitTrigger: the hyper-parameter grid runs once per RefitEvery
// new observations, however Next and Collect interleave. Keyed on n itself it
// ran once per worker asking at the same n, and not at all when n stepped
// over the multiple between two calls.
func TestBayesRefitTrigger(t *testing.T) {
	warm := func(n int) (*BayesAdvisor, *Trial) {
		adv := NewBayesAdvisor(goldenSpace(t), sim.NewRNG(3))
		var last *Trial
		for i := 0; i < n; i++ {
			tr, err := adv.Next("w")
			if err != nil {
				t.Fatal(err)
			}
			adv.Collect("w", tr, goldenResponse(tr))
			last = tr
		}
		return adv, last
	}
	next := func(adv *BayesAdvisor) *Trial {
		tr, err := adv.Next("w")
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// Two workers ask at n = 10, then both report: one fit, not two.
	adv, _ := warm(10)
	if adv.fits != 0 {
		t.Fatalf("fits before n reached RefitEvery: %d", adv.fits)
	}
	a, b := next(adv), next(adv)
	if adv.fits != 1 {
		t.Fatalf("Next,Next at n=10: %d fits, want 1", adv.fits)
	}
	adv.Collect("w", a, goldenResponse(a))
	adv.Collect("w", b, goldenResponse(b))
	if next(adv); adv.fits != 1 {
		t.Fatalf("Next at n=12: %d fits, want 1", adv.fits)
	}

	// Two reports land between two asks and n goes 9 → 11: still one fit.
	adv, last := warm(9)
	adv.Collect("w", last, goldenResponse(last))
	adv.Collect("w", last, goldenResponse(last))
	if next(adv); adv.fits != 1 || adv.Observations() != 11 {
		t.Fatalf("Collect,Collect,Next over n=10: %d fits at n=%d, want 1 at 11", adv.fits, adv.Observations())
	}
}

// TestBayesSkipsNonFiniteResults: a NaN or Inf result changes nothing the
// advisor does next. In the GP it made every expected improvement NaN, so
// Next fell back to random search for the rest of the study; as the first
// result it stayed the incumbent for good.
func TestBayesSkipsNonFiniteResults(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, at := range []int{0, 12} {
			var prints [2][]uint32
			var best [2]*Trial
			for side, report := range []bool{false, true} {
				adv := NewBayesAdvisor(goldenSpace(t), sim.NewRNG(11))
				for i := 0; i < at+11; i++ {
					tr, err := adv.Next("w")
					if err != nil {
						t.Fatal(err)
					}
					if i > at {
						prints[side] = append(prints[side], trialPrint(tr))
					}
					switch {
					case i != at:
						adv.Collect("w", tr, goldenResponse(tr))
					case report:
						adv.Collect("w", tr, bad)
					}
				}
				best[side], _ = adv.Best()
			}
			if !slices.Equal(prints[0], prints[1]) {
				t.Fatalf("%v at trial %d: next proposals %x, without that report %x", bad, at, prints[1], prints[0])
			}
			if trialPrint(best[0]) != trialPrint(best[1]) {
				t.Fatalf("%v at trial %d: incumbent %v, without that report %v", bad, at, best[1], best[0])
			}
		}
	}
}

// TestBayesNextAllocations: once the scratch exists a proposal allocates
// for the trial it returns, not for the candidates it scores.
func TestBayesNextAllocations(t *testing.T) {
	allocs := func(candidates int) float64 {
		adv := NewBayesAdvisor(goldenSpace(t), sim.NewRNG(4))
		adv.Candidates = candidates
		for i := 0; i < 12; i++ {
			tr, err := adv.Next("w")
			if err != nil {
				t.Fatal(err)
			}
			adv.Collect("w", tr, goldenResponse(tr))
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := adv.Next("w"); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(50), allocs(1000)
	if few != many || many > 8 {
		t.Fatalf("allocations per Next: %v at 50 candidates, %v at 1000; want equal and at most 8", few, many)
	}
}

// BenchmarkBayesStudy is one sequential study of the size the end-to-end
// train_bayes workload runs per model.
func BenchmarkBayesStudy(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		goldenStudy(b, 150)
	}
}

package nn

import (
	"bytes"
	"math"
	"testing"

	"rafiki/internal/sim"
)

func TestDenseForwardLinear(t *testing.T) {
	d := &Dense{In: 2, Out: 1, Act: Linear,
		W: []float64{2, 3}, B: []float64{1},
		GW: make([]float64, 2), GB: make([]float64, 1)}
	out := d.Forward([]float64{4, 5})
	if out[0] != 2*4+3*5+1 {
		t.Fatalf("forward = %v, want 24", out[0])
	}
}

func TestActivations(t *testing.T) {
	if ReLU.apply(-2) != 0 || ReLU.apply(3) != 3 {
		t.Fatal("relu")
	}
	if math.Abs(Tanh.apply(0.5)-math.Tanh(0.5)) > 1e-15 {
		t.Fatal("tanh")
	}
	if Linear.apply(-7) != -7 {
		t.Fatal("linear")
	}
	if ReLU.derivFromOutput(0) != 0 || ReLU.derivFromOutput(2) != 1 {
		t.Fatal("relu deriv")
	}
	y := math.Tanh(0.7)
	if math.Abs(Tanh.derivFromOutput(y)-(1-y*y)) > 1e-15 {
		t.Fatal("tanh deriv")
	}
}

// numericGrad estimates dL/dθ by central differences for a scalar loss.
func numericGrad(theta *float64, loss func() float64) float64 {
	const h = 1e-6
	orig := *theta
	*theta = orig + h
	lp := loss()
	*theta = orig - h
	lm := loss()
	*theta = orig
	return (lp - lm) / (2 * h)
}

func TestBackpropMatchesNumericGradient(t *testing.T) {
	rng := sim.NewRNG(42)
	for _, act := range []Activation{Linear, ReLU, Tanh} {
		m := NewMLP([]int{3, 5, 2}, act, Linear, rng)
		x := []float64{0.3, -0.7, 1.1}
		target := []float64{0.5, -0.25}
		loss := func() float64 {
			out := m.Forward(x)
			l := 0.0
			for i := range out {
				d := out[i] - target[i]
				l += 0.5 * d * d
			}
			return l
		}
		// Analytic gradients.
		m.ZeroGrad()
		out := m.Forward(x)
		gradOut := make([]float64, len(out))
		for i := range out {
			gradOut[i] = out[i] - target[i]
		}
		m.Backward(gradOut)
		for li, l := range m.Layers {
			for wi := range l.W {
				want := numericGrad(&l.W[wi], loss)
				got := l.GW[wi]
				if math.Abs(want-got) > 1e-4*(1+math.Abs(want)) {
					t.Fatalf("act=%v layer %d W[%d]: analytic %v vs numeric %v", act, li, wi, got, want)
				}
			}
			for bi := range l.B {
				want := numericGrad(&l.B[bi], loss)
				got := l.GB[bi]
				if math.Abs(want-got) > 1e-4*(1+math.Abs(want)) {
					t.Fatalf("act=%v layer %d B[%d]: analytic %v vs numeric %v", act, li, bi, got, want)
				}
			}
		}
	}
}

func TestInputGradientMatchesNumeric(t *testing.T) {
	rng := sim.NewRNG(9)
	m := NewMLP([]int{4, 6, 3}, Tanh, Linear, rng)
	x := []float64{0.1, -0.2, 0.3, 0.9}
	target := []float64{1, 0, -1}
	loss := func() float64 {
		out := m.Forward(x)
		l := 0.0
		for i := range out {
			d := out[i] - target[i]
			l += 0.5 * d * d
		}
		return l
	}
	m.ZeroGrad()
	out := m.Forward(x)
	gradOut := make([]float64, len(out))
	for i := range out {
		gradOut[i] = out[i] - target[i]
	}
	gin := m.Backward(gradOut)
	for i := range x {
		want := numericGrad(&x[i], loss)
		if math.Abs(gin[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("input grad [%d]: %v vs %v", i, gin[i], want)
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := sim.NewRNG(7)
	m := NewMLP([]int{2, 8, 1}, Tanh, Linear, rng)
	opt := NewAdam(0.02)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 2000; epoch++ {
		m.ZeroGrad()
		for i, x := range inputs {
			out := m.Forward(x)
			m.Backward([]float64{out[0] - targets[i]})
		}
		opt.Step(m)
	}
	for i, x := range inputs {
		out := m.Forward(x)
		if math.Abs(out[0]-targets[i]) > 0.1 {
			t.Fatalf("XOR not learned: f(%v)=%v want %v", x, out[0], targets[i])
		}
	}
}

func TestSGDMomentumLearnsLinear(t *testing.T) {
	rng := sim.NewRNG(8)
	m := NewMLP([]int{1, 1}, Linear, Linear, rng)
	opt := NewSGD(0.05, 0.9, 0)
	// target: y = 3x - 1
	for epoch := 0; epoch < 500; epoch++ {
		m.ZeroGrad()
		for _, x := range []float64{-1, -0.5, 0, 0.5, 1} {
			out := m.Forward([]float64{x})
			m.Backward([]float64{out[0] - (3*x - 1)})
		}
		opt.Step(m)
	}
	if w := m.Layers[0].W[0]; math.Abs(w-3) > 0.05 {
		t.Fatalf("w = %v, want ~3", w)
	}
	if b := m.Layers[0].B[0]; math.Abs(b+1) > 0.05 {
		t.Fatalf("b = %v, want ~-1", b)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	p := Softmax([]float64{1000, 1001, 999}) // stability check
	sum := 0.0
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax component out of (0,1): %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if Argmax(p) != 1 {
		t.Fatal("argmax of softmax should follow logits")
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp([]float64{math.Log(1), math.Log(2), math.Log(3)})
	if math.Abs(got-math.Log(6)) > 1e-12 {
		t.Fatalf("logsumexp = %v, want log 6", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("empty logsumexp should be -Inf")
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := sim.NewRNG(10)
	p := []float64{0.2, 0.5, 0.3}
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(p, rng)]++
	}
	for i, want := range p {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("category %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	rng := sim.NewRNG(11)
	m := NewMLP([]int{2, 2}, Linear, Linear, rng)
	for i := range m.Layers[0].GW {
		m.Layers[0].GW[i] = 10
	}
	pre := m.ClipGradNorm(1)
	if pre <= 1 {
		t.Fatalf("pre-clip norm = %v, should exceed 1", pre)
	}
	total := 0.0
	for _, g := range m.Layers[0].GW {
		total += g * g
	}
	for _, g := range m.Layers[0].GB {
		total += g * g
	}
	if math.Abs(math.Sqrt(total)-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 1", math.Sqrt(total))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := sim.NewRNG(12)
	m := NewMLP([]int{3, 4, 2}, ReLU, Linear, rng)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadMLP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.5, -0.5, 2}
	a, b := m.Forward(x), m2.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loaded network diverges: %v vs %v", a, b)
		}
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	rng := sim.NewRNG(13)
	a := NewMLP([]int{2, 3, 1}, Tanh, Linear, rng)
	b := NewMLP([]int{2, 3, 1}, Tanh, Linear, rng)
	if err := b.CopyWeightsFrom(a); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.4, 0.6}
	if a.Forward(x)[0] != b.Forward(x)[0] {
		t.Fatal("copied networks should agree")
	}
	c := NewMLP([]int{2, 4, 1}, Tanh, Linear, rng)
	if err := c.CopyWeightsFrom(a); err == nil {
		t.Fatal("shape mismatch should error")
	}
}

func TestNumParams(t *testing.T) {
	rng := sim.NewRNG(14)
	m := NewMLP([]int{3, 5, 2}, ReLU, Linear, rng)
	want := 3*5 + 5 + 5*2 + 2
	if got := m.NumParams(); got != want {
		t.Fatalf("numParams = %d, want %d", got, want)
	}
}

// TestForwardBatchMatchesForward pins the batched kernel to the
// single-sample path bit for bit: every batch size from 1 to 17 (whole
// 4-sample blocks plus every remainder), an even and an odd output width for
// the 2-output block, and every activation on both the hidden and the output
// layer.
func TestForwardBatchMatchesForward(t *testing.T) {
	acts := []Activation{Linear, ReLU, Tanh}
	for _, sizes := range [][]int{{16, 24, 8}, {8, 12, 3}} {
		for _, hidden := range acts {
			for _, outAct := range acts {
				rng := sim.NewRNG(int64(100*sizes[0] + 10*int(hidden) + int(outAct)))
				m := NewMLP(sizes, hidden, outAct, rng)
				for i := range m.Layers {
					for o := range m.Layers[i].B {
						m.Layers[i].B[o] = rng.Normal(0, 0.5)
					}
				}
				in, out := sizes[0], sizes[len(sizes)-1]
				bufs := make([][]float64, len(m.Layers))
				for n := 1; n <= 17; n++ {
					x := make([]float64, n*in)
					for i := range x {
						x[i] = rng.Normal(0, 1)
					}
					got := m.ForwardBatch(x, bufs)
					if len(got) != n*out {
						t.Fatalf("%v %v/%v n=%d: %d outputs, want %d", sizes, hidden, outAct, n, len(got), n*out)
					}
					for s := 0; s < n; s++ {
						want := m.Forward(x[s*in : (s+1)*in])
						for o, w := range want {
							if g := got[s*out+o]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("%v %v/%v n=%d sample %d output %d: batch %v, forward %v",
									sizes, hidden, outAct, n, s, o, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestForwardBatchReusesScratch checks the scratch contract: once bufs has
// grown to a batch size, passes of that size or smaller allocate nothing.
func TestForwardBatchReusesScratch(t *testing.T) {
	m := NewMLP([]int{16, 24, 5}, ReLU, Linear, sim.NewRNG(3))
	bufs := make([][]float64, len(m.Layers))
	x := make([]float64, 16*16)
	m.ForwardBatch(x, bufs)
	if allocs := testing.AllocsPerRun(100, func() {
		m.ForwardBatch(x, bufs)
		m.ForwardBatch(x[:5*16], bufs)
	}); allocs != 0 {
		t.Fatalf("ForwardBatch allocated %v times per run with grown scratch", allocs)
	}
}

// BenchmarkForwardBatch compares one 16-sample batch through the serving
// backend's net shape as 16 Forward calls and as one ForwardBatch.
func BenchmarkForwardBatch(b *testing.B) {
	const n, in = 16, 16
	rng := sim.NewRNG(5)
	m := NewMLP([]int{in, 24, 5}, ReLU, Linear, rng)
	x := make([]float64, n*in)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.Run("Forward", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for s := 0; s < n; s++ {
				m.Forward(x[s*in : (s+1)*in])
			}
		}
	})
	b.Run("ForwardBatch", func(b *testing.B) {
		bufs := make([][]float64, len(m.Layers))
		m.ForwardBatch(x, bufs) // grow the scratch outside the timed loop
		b.ReportAllocs()
		for b.Loop() {
			m.ForwardBatch(x, bufs)
		}
	})
}

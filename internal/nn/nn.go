// Package nn is a compact feed-forward neural-network library used to
// implement the paper's actor-critic policy and value functions (Section 2.4
// and 5.2): dense layers, ReLU/Tanh activations, softmax heads, manual
// backpropagation, gradient clipping, and SGD/Adam optimizers.
//
// The paper implements piθ as "a multi-layer perceptron model that takes the
// state vector as input and generates the action"; this package is exactly
// that substrate, built from scratch on the standard library.
package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"rafiki/internal/sim"
)

// Activation selects the nonlinearity applied after a dense layer.
type Activation int

// Supported activations. Linear means no nonlinearity (used for output heads;
// softmax is applied by the consumer where needed so that loss gradients can
// be fused with it).
const (
	Linear Activation = iota
	ReLU
	Tanh
)

func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	}
	return fmt.Sprintf("activation(%d)", int(a))
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// applyAll replaces every x in xs with apply(x), switching on the activation
// once per slice instead of once per element.
func (a Activation) applyAll(xs []float64) {
	switch a {
	case ReLU:
		for i, x := range xs {
			if x < 0 {
				xs[i] = 0
			}
		}
	case Tanh:
		for i, x := range xs {
			xs[i] = math.Tanh(x)
		}
	}
}

// derivFromOutput returns dσ/dz expressed via the activation output y=σ(z).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// Dense is a fully connected layer y = σ(Wx + b) with gradient accumulators.
type Dense struct {
	In, Out int
	Act     Activation
	W       []float64 // Out x In, row-major
	B       []float64 // Out
	GW      []float64 // accumulated dL/dW
	GB      []float64 // accumulated dL/dB

	// forward cache (single-threaded use per network)
	lastIn  []float64
	lastOut []float64
}

// NewDense returns a dense layer with He-style Gaussian initialization,
// scaled for the fan-in (appropriate for ReLU and mild for Tanh/Linear).
func NewDense(in, out int, act Activation, rng *sim.RNG) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		W:  make([]float64, in*out),
		B:  make([]float64, out),
		GW: make([]float64, in*out),
		GB: make([]float64, out),
	}
	std := math.Sqrt(2.0 / float64(in))
	if act != ReLU {
		std = math.Sqrt(1.0 / float64(in))
	}
	for i := range d.W {
		d.W[i] = rng.Normal(0, std)
	}
	return d
}

// Forward computes the layer output for x and caches activations for Backward.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense forward got %d inputs, want %d", len(x), d.In))
	}
	d.lastIn = x
	out := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		s := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = d.Act.apply(s)
	}
	d.lastOut = out
	return out
}

// ForwardBatch computes the layer output for n samples at once: x holds them
// row-major (n×In), out receives n×Out rows. It caches nothing for Backward
// and allocates nothing; the inference path owns both slices. The loop is
// register-blocked 4 samples × 2 outputs so each weight load feeds four
// samples, yet every sample still accumulates in Forward's order — bias
// first, then inputs 0…In−1 — and the activation runs as a separate pass, so
// each output row is bit-identical to Forward's.
func (d *Dense) ForwardBatch(x, out []float64) {
	in, nout := d.In, d.Out
	if in == 0 || len(x)%in != 0 {
		panic(fmt.Sprintf("nn: dense batch forward got %d inputs, not a multiple of %d", len(x), in))
	}
	n := len(x) / in
	if len(out) != n*nout {
		panic(fmt.Sprintf("nn: dense batch forward got %d outputs for %d samples of %d", len(out), n, nout))
	}
	s := 0
	for ; s+4 <= n; s += 4 {
		x0 := x[s*in : (s+1)*in]
		x1 := x[(s+1)*in : (s+2)*in]
		x2 := x[(s+2)*in : (s+3)*in]
		x3 := x[(s+3)*in : (s+4)*in]
		y0 := out[s*nout : (s+1)*nout]
		y1 := out[(s+1)*nout : (s+2)*nout]
		y2 := out[(s+2)*nout : (s+3)*nout]
		y3 := out[(s+3)*nout : (s+4)*nout]
		o := 0
		for ; o+2 <= nout; o += 2 {
			w0 := d.W[o*in : (o+1)*in]
			w1 := d.W[(o+1)*in : (o+2)*in]
			b0, b1 := d.B[o], d.B[o+1]
			a00, a01, a10, a11 := b0, b1, b0, b1
			a20, a21, a30, a31 := b0, b1, b0, b1
			for i, u := range w0 {
				v := w1[i]
				a00 += u * x0[i]
				a01 += v * x0[i]
				a10 += u * x1[i]
				a11 += v * x1[i]
				a20 += u * x2[i]
				a21 += v * x2[i]
				a30 += u * x3[i]
				a31 += v * x3[i]
			}
			y0[o], y0[o+1] = a00, a01
			y1[o], y1[o+1] = a10, a11
			y2[o], y2[o+1] = a20, a21
			y3[o], y3[o+1] = a30, a31
		}
		if o < nout { // odd output width: the last row alone
			w0 := d.W[o*in : (o+1)*in]
			a0, a1, a2, a3 := d.B[o], d.B[o], d.B[o], d.B[o]
			for i, u := range w0 {
				a0 += u * x0[i]
				a1 += u * x1[i]
				a2 += u * x2[i]
				a3 += u * x3[i]
			}
			y0[o], y1[o], y2[o], y3[o] = a0, a1, a2, a3
		}
	}
	for ; s < n; s++ { // fewer than 4 samples left: Forward's loop
		xs := x[s*in : (s+1)*in]
		ys := out[s*nout : (s+1)*nout]
		for o := range ys {
			a := d.B[o]
			for i, u := range d.W[o*in : (o+1)*in] {
				a += u * xs[i]
			}
			ys[o] = a
		}
	}
	d.Act.applyAll(out)
}

// Backward takes dL/dy for this layer's output, accumulates parameter
// gradients, and returns dL/dx for the layer input. Forward must have been
// called first with the corresponding input.
func (d *Dense) Backward(gradOut []float64) []float64 {
	if len(gradOut) != d.Out {
		panic(fmt.Sprintf("nn: dense backward got %d grads, want %d", len(gradOut), d.Out))
	}
	gradIn := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		gz := gradOut[o] * d.Act.derivFromOutput(d.lastOut[o])
		if gz == 0 {
			continue
		}
		d.GB[o] += gz
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.GW[o*d.In : (o+1)*d.In]
		for i, xi := range d.lastIn {
			grow[i] += gz * xi
			gradIn[i] += gz * row[i]
		}
	}
	return gradIn
}

// ZeroGrad clears accumulated gradients.
func (d *Dense) ZeroGrad() {
	for i := range d.GW {
		d.GW[i] = 0
	}
	for i := range d.GB {
		d.GB[i] = 0
	}
}

// MLP is a stack of dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds a multi-layer perceptron with the given layer sizes, hidden
// activation for all interior layers and outAct on the final layer. sizes
// must contain at least an input and output width.
func NewMLP(sizes []int, hidden, outAct Activation, rng *sim.RNG) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hidden
		if i+2 == len(sizes) {
			act = outAct
		}
		m.Layers = append(m.Layers, NewDense(sizes[i], sizes[i+1], act, rng))
	}
	return m
}

// Forward runs the network on x and returns the output layer activations.
func (m *MLP) Forward(x []float64) []float64 {
	h := x
	for _, l := range m.Layers {
		h = l.Forward(h)
	}
	return h
}

// ForwardBatch runs n samples, stored row-major in x (n×In), through the
// network and returns the n×Out output rows, each bit-identical to Forward's
// answer for that sample. bufs is caller-owned scratch with one slice per
// layer: a slice too short for this batch is replaced by a larger one the
// caller keeps, so scratch reused across batches allocates nothing once it
// has grown to the largest batch. The returned rows alias bufs' last slice.
// Training keeps Forward, which caches what Backward needs.
func (m *MLP) ForwardBatch(x []float64, bufs [][]float64) []float64 {
	if len(bufs) != len(m.Layers) {
		panic(fmt.Sprintf("nn: batch forward got %d layer buffers for %d layers", len(bufs), len(m.Layers)))
	}
	h := x
	for l, layer := range m.Layers {
		need := len(h) / layer.In * layer.Out
		if cap(bufs[l]) < need {
			bufs[l] = make([]float64, need)
		}
		out := bufs[l][:need]
		layer.ForwardBatch(h, out)
		h = out
	}
	return h
}

// Backward propagates dL/dOutput through the network, accumulating gradients
// in each layer, and returns dL/dInput.
func (m *MLP) Backward(gradOut []float64) []float64 {
	g := gradOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		g = m.Layers[i].Backward(g)
	}
	return g
}

// ZeroGrad clears all layer gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// ClipGradNorm rescales all accumulated gradients so their global L2 norm is
// at most maxNorm, and returns the pre-clip norm.
func (m *MLP) ClipGradNorm(maxNorm float64) float64 {
	total := 0.0
	for _, l := range m.Layers {
		for _, g := range l.GW {
			total += g * g
		}
		for _, g := range l.GB {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, l := range m.Layers {
			for i := range l.GW {
				l.GW[i] *= scale
			}
			for i := range l.GB {
				l.GB[i] *= scale
			}
		}
	}
	return norm
}

// NumParams returns the total number of trainable parameters.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.W) + len(l.B)
	}
	return n
}

// CopyWeightsFrom copies parameters from src, which must have an identical
// architecture. Used for checkpoint restore and target-network style syncs.
func (m *MLP) CopyWeightsFrom(src *MLP) error {
	if len(m.Layers) != len(src.Layers) {
		return fmt.Errorf("nn: layer count mismatch %d vs %d", len(m.Layers), len(src.Layers))
	}
	for i, l := range m.Layers {
		s := src.Layers[i]
		if l.In != s.In || l.Out != s.Out {
			return fmt.Errorf("nn: layer %d shape mismatch", i)
		}
		copy(l.W, s.W)
		copy(l.B, s.B)
	}
	return nil
}

// mlpState is the serialized form of an MLP (weights only).
type mlpState struct {
	Sizes []int
	Acts  []Activation
	W     [][]float64
	B     [][]float64
}

// Save writes the network weights with encoding/gob.
func (m *MLP) Save(w io.Writer) error {
	st := mlpState{}
	for i, l := range m.Layers {
		if i == 0 {
			st.Sizes = append(st.Sizes, l.In)
		}
		st.Sizes = append(st.Sizes, l.Out)
		st.Acts = append(st.Acts, l.Act)
		st.W = append(st.W, append([]float64(nil), l.W...))
		st.B = append(st.B, append([]float64(nil), l.B...))
	}
	return gob.NewEncoder(w).Encode(st)
}

// LoadMLP reads a network saved with Save.
func LoadMLP(r io.Reader) (*MLP, error) {
	var st mlpState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	m := &MLP{}
	for i := 0; i+1 < len(st.Sizes); i++ {
		d := &Dense{
			In: st.Sizes[i], Out: st.Sizes[i+1], Act: st.Acts[i],
			W: st.W[i], B: st.B[i],
			GW: make([]float64, st.Sizes[i]*st.Sizes[i+1]),
			GB: make([]float64, st.Sizes[i+1]),
		}
		m.Layers = append(m.Layers, d)
	}
	return m, nil
}

// Softmax returns the softmax of logits, computed stably.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// LogSumExp returns log Σ exp(x_i), computed stably.
func LogSumExp(x []float64) float64 {
	maxv := math.Inf(-1)
	for _, v := range x {
		if v > maxv {
			maxv = v
		}
	}
	if math.IsInf(maxv, -1) {
		return maxv
	}
	s := 0.0
	for _, v := range x {
		s += math.Exp(v - maxv)
	}
	return maxv + math.Log(s)
}

// SampleCategorical draws an index from the probability vector p.
func SampleCategorical(p []float64, rng *sim.RNG) int {
	u := rng.Float64()
	acc := 0.0
	for i, pi := range p {
		acc += pi
		if u < acc {
			return i
		}
	}
	return len(p) - 1
}

// Argmax returns the index of the largest element.
func Argmax(x []float64) int {
	best, idx := math.Inf(-1), 0
	for i, v := range x {
		if v > best {
			best, idx = v, i
		}
	}
	return idx
}

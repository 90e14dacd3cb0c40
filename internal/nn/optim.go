package nn

import "math"

// Optimizer applies accumulated gradients to an MLP's parameters.
type Optimizer interface {
	// Step applies the network's accumulated gradients and clears them,
	// each as it reads it.
	Step(m *MLP)
}

// SGD is stochastic gradient descent with optional momentum and weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	vw, vb [][]float64
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step implements Optimizer.
func (s *SGD) Step(m *MLP) {
	if s.vw == nil {
		for _, l := range m.Layers {
			s.vw = append(s.vw, make([]float64, len(l.W)))
			s.vb = append(s.vb, make([]float64, len(l.B)))
		}
	}
	for li, l := range m.Layers {
		vw, vb := s.vw[li], s.vb[li]
		for i := range l.W {
			g := l.GW[i] + s.WeightDecay*l.W[i]
			l.GW[i] = 0
			vw[i] = s.Momentum*vw[i] + g
			l.W[i] -= s.LR * vw[i]
		}
		for i := range l.B {
			vb[i] = s.Momentum*vb[i] + l.GB[i]
			l.GB[i] = 0
			l.B[i] -= s.LR * vb[i]
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t      int
	mw, vw [][]float64
	mb, vb [][]float64
}

// NewAdam returns an Adam optimizer with the conventional defaults for the
// second-moment hyper-parameters.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(m *MLP) {
	if a.mw == nil {
		for _, l := range m.Layers {
			a.mw = append(a.mw, make([]float64, len(l.W)))
			a.vw = append(a.vw, make([]float64, len(l.W)))
			a.mb = append(a.mb, make([]float64, len(l.B)))
			a.vb = append(a.vb, make([]float64, len(l.B)))
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for li, l := range m.Layers {
		mw, vw, mb, vb := a.mw[li], a.vw[li], a.mb[li], a.vb[li]
		for i := range l.W {
			g := l.GW[i]
			l.GW[i] = 0
			mw[i] = a.Beta1*mw[i] + (1-a.Beta1)*g
			vw[i] = a.Beta2*vw[i] + (1-a.Beta2)*g*g
			l.W[i] -= a.LR * (mw[i] / c1) / (math.Sqrt(vw[i]/c2) + a.Eps)
		}
		for i := range l.B {
			g := l.GB[i]
			l.GB[i] = 0
			mb[i] = a.Beta1*mb[i] + (1-a.Beta1)*g
			vb[i] = a.Beta2*vb[i] + (1-a.Beta2)*g*g
			l.B[i] -= a.LR * (mb[i] / c1) / (math.Sqrt(vb[i]/c2) + a.Eps)
		}
	}
}

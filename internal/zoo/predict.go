package zoo

import (
	"encoding/binary"
	"fmt"

	"rafiki/internal/sim"
)

// Predictor simulates per-model top-1 predictions for validation requests.
//
// The paper evaluates ensembles on the real ImageNet validation set
// (Figure 6). Offline we reproduce the statistical structure that matters to
// majority voting instead: each model's marginal accuracy matches its
// Figure 3 profile exactly, correct decisions are positively correlated
// across models (ConvNets fail on the same hard images), and wrong models
// sometimes agree on the same wrong label. Correlations are induced with a
// shared per-request difficulty draw (mixture construction), which keeps
// marginals exact:
//
//	P(m correct) = ρ·P(u<acc) + (1−ρ)·P(u_m<acc) = acc
//	P(a,b both correct) = ρ²·min(acc_a,acc_b) + (1−ρ²)·acc_a·acc_b
//
// Predictions are a pure function of (seed, request id, model name), so any
// scheduler evaluating the same request set sees the same ground truth.
type Predictor struct {
	// Classes is the label-space size (1000 for the ImageNet stand-in).
	Classes int
	// Rho in [0,1] controls correct-decision correlation (see above).
	Rho float64
	// WrongAgree is the probability a wrong model votes the request's
	// shared distractor label rather than an independent one.
	WrongAgree float64

	seed int64
}

// NewPredictor returns a predictor with the calibration used throughout the
// experiments: 1000 classes, ρ=0.78 and 35% shared-wrong agreement, which
// lands the Figure 6 ensemble gains in the paper's band (~+1–3% over the
// best single model; see TestFigure6Calibration).
func NewPredictor(seed int64) *Predictor {
	return &Predictor{Classes: 1000, Rho: 0.78, WrongAgree: 0.35, seed: seed}
}

func fnv1a(parts ...uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var buf [8]byte
	h := uint64(offset64)
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], p)
		for _, b := range buf {
			h ^= uint64(b)
			h *= prime64
		}
	}
	return h
}

func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// requestRNG returns the RNG for per-request shared draws.
func (p *Predictor) requestRNG(requestID uint64) *sim.RNG {
	return sim.NewRNG(int64(fnv1a(uint64(p.seed), requestID, 0x9e3779b97f4a7c15)))
}

// modelRNG returns the RNG for per-(request, model) draws.
func (p *Predictor) modelRNG(requestID uint64, model string) *sim.RNG {
	return sim.NewRNG(int64(fnv1a(uint64(p.seed), requestID, hashString(model))))
}

// Truth returns the true label of a request.
func (p *Predictor) Truth(requestID uint64) int {
	return p.requestRNG(requestID).Intn(p.Classes)
}

// requestDraws returns the shared per-request draws in stream order: the
// true label, the shared difficulty u, and the shared distractor label.
func (p *Predictor) requestDraws(requestID uint64) (truth int, sharedU float64, sharedDistractor int) {
	req := p.requestRNG(requestID)
	truth = req.Intn(p.Classes)
	sharedU = req.Float64()
	sharedDistractor = p.distractor(req, truth)
	return truth, sharedU, sharedDistractor
}

// predictModel draws one model's label given the request's shared draws. The
// per-(request, model) stream is consumed in the same order as always, so the
// result is the same pure function of (seed, request id, model name).
func (p *Predictor) predictModel(requestID uint64, model string, truth int, sharedU float64, sharedDistractor int) (int, error) {
	prof, err := Lookup(model)
	if err != nil {
		return 0, err
	}
	mr := p.modelRNG(requestID, model)
	u := sharedU
	if !mr.Bernoulli(p.Rho) {
		u = mr.Float64()
	}
	if u < prof.Top1Accuracy {
		return truth, nil
	}
	if mr.Bernoulli(p.WrongAgree) {
		return sharedDistractor, nil
	}
	return p.distractor(mr, truth), nil
}

// Predict returns model's predicted label for the request.
func (p *Predictor) Predict(requestID uint64, model string) (int, error) {
	truth, sharedU, sharedDistractor := p.requestDraws(requestID)
	return p.predictModel(requestID, model, truth, sharedU, sharedDistractor)
}

// distractor draws a label different from truth.
func (p *Predictor) distractor(r *sim.RNG, truth int) int {
	if p.Classes < 2 {
		return truth
	}
	d := r.Intn(p.Classes - 1)
	if d >= truth {
		d++
	}
	return d
}

// PredictAll returns predictions for several models plus the true label. The
// shared per-request stream is drawn once and its draws reused across
// models: a request opens one shared stream plus one per model. Each draws
// at most five values, which a lazily seeded sim.RNG serves without ever
// building its 607-word register.
func (p *Predictor) PredictAll(requestID uint64, models []string) (preds []int, truth int, err error) {
	truth, sharedU, sharedDistractor := p.requestDraws(requestID)
	preds = make([]int, len(models))
	for i, m := range models {
		preds[i], err = p.predictModel(requestID, m, truth, sharedU, sharedDistractor)
		if err != nil {
			return nil, 0, fmt.Errorf("zoo: predict %s: %w", m, err)
		}
	}
	return preds, truth, nil
}

// Package advisor implements Rafiki's hyper-parameter tuning programming
// model (Section 4.2.1): the HyperSpace knob declarations of Figure 4 with
// dependency ordering and pre/post hooks, the Table 1 knob groups, and the
// TrialAdvisor search algorithms — random search, grid search and
// Gaussian-process Bayesian optimization — that plug into the Study masters.
package advisor

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"rafiki/internal/sim"
)

// Dtype is the data type of a knob value.
type Dtype string

// Knob data types (Figure 4's dtype argument).
const (
	Float  Dtype = "float"
	Int    Dtype = "int"
	String Dtype = "string"
)

// Group classifies a knob per Table 1.
type Group string

// Table 1's hyper-parameter groups.
const (
	GroupPreprocess   Group = "data-preprocessing"
	GroupArchitecture Group = "model-architecture"
	GroupAlgorithm    Group = "training-algorithm"
)

// Value is a knob assignment: numeric for range knobs (ints are rounded
// floats), string for categorical knobs.
type Value struct {
	Num float64
	Str string
	Cat bool // true when the value is categorical
}

// Float returns the numeric value (0 for categorical values).
func (v Value) Float() float64 { return v.Num }

// String renders the value.
func (v Value) String() string {
	if v.Cat {
		return v.Str
	}
	return fmt.Sprintf("%g", v.Num)
}

// Trial is one point in the hyper-parameter space (Section 4.2.1: "we call
// one point in the space as a trial").
type Trial struct {
	ID     string
	Params map[string]Value
}

// Clone deep-copies the trial.
func (t *Trial) Clone() *Trial {
	out := &Trial{ID: t.ID, Params: make(map[string]Value, len(t.Params))}
	for k, v := range t.Params {
		out.Params[k] = v
	}
	return out
}

// Float returns the numeric value of a named knob, or an error.
func (t *Trial) Float(name string) (float64, error) {
	v, ok := t.Params[name]
	if !ok {
		return 0, fmt.Errorf("advisor: trial missing knob %q", name)
	}
	if v.Cat {
		return 0, fmt.Errorf("advisor: knob %q is categorical", name)
	}
	return v.Num, nil
}

// Cat returns the categorical value of a named knob, or an error.
func (t *Trial) Cat(name string) (string, error) {
	v, ok := t.Params[name]
	if !ok {
		return "", fmt.Errorf("advisor: trial missing knob %q", name)
	}
	if !v.Cat {
		return "", fmt.Errorf("advisor: knob %q is numeric", name)
	}
	return v.Str, nil
}

// Hook adjusts a partially sampled trial. PreHooks run before the knob is
// sampled, PostHooks after (the paper's example: shrink the learning-rate
// decay after a large learning rate was drawn).
type Hook func(t *Trial, rng *sim.RNG)

// Knob declares one tunable hyper-parameter.
type Knob struct {
	Name  string
	Dtype Dtype
	Group Group

	// Range knobs: domain [Min, Max); Log samples log-uniformly.
	Min, Max float64
	Log      bool

	// log(Min) and log(Max) of a Log knob, taken once at declaration for
	// every draw and encoding.
	logMin, logMax float64

	// Categorical knobs.
	Cats []string

	// Depends lists knobs that must be sampled before this one.
	Depends []string

	PreHook  Hook
	PostHook Hook
}

func (k *Knob) categorical() bool { return len(k.Cats) > 0 }

// HyperSpace is the declared hyper-parameter space H (Figure 4's API).
type HyperSpace struct {
	knobs map[string]*Knob
	order []*Knob // topological sample order; nil until resolved
}

// NewHyperSpace returns an empty space.
func NewHyperSpace() *HyperSpace {
	return &HyperSpace{knobs: map[string]*Knob{}}
}

// AddRangeKnob declares a numeric knob with domain [min, max). dtype must be
// Float or Int. opts mutate the knob before registration (see WithLog,
// WithGroup, WithDepends, WithHooks).
func (h *HyperSpace) AddRangeKnob(name string, dtype Dtype, min, max float64, opts ...KnobOption) error {
	if dtype != Float && dtype != Int {
		return fmt.Errorf("advisor: range knob %q needs Float or Int dtype, got %q", name, dtype)
	}
	if !(min < max) {
		return fmt.Errorf("advisor: range knob %q needs min < max, got [%v,%v)", name, min, max)
	}
	k := &Knob{Name: name, Dtype: dtype, Min: min, Max: max, Group: GroupAlgorithm}
	for _, o := range opts {
		o(k)
	}
	if k.Log {
		if min <= 0 {
			return fmt.Errorf("advisor: log knob %q needs positive min", name)
		}
		k.logMin, k.logMax = math.Log(min), math.Log(max)
	}
	return h.add(k)
}

// AddCategoricalKnob declares a categorical knob over the candidate list.
func (h *HyperSpace) AddCategoricalKnob(name string, dtype Dtype, list []string, opts ...KnobOption) error {
	if len(list) == 0 {
		return fmt.Errorf("advisor: categorical knob %q needs candidates", name)
	}
	k := &Knob{Name: name, Dtype: dtype, Cats: append([]string(nil), list...), Group: GroupAlgorithm}
	for _, o := range opts {
		o(k)
	}
	return h.add(k)
}

func (h *HyperSpace) add(k *Knob) error {
	if k.Name == "" {
		return errors.New("advisor: knob needs a name")
	}
	if _, ok := h.knobs[k.Name]; ok {
		return fmt.Errorf("advisor: duplicate knob %q", k.Name)
	}
	h.knobs[k.Name] = k
	h.order = nil
	return nil
}

// KnobOption configures a knob at declaration time.
type KnobOption func(*Knob)

// WithLog samples the knob log-uniformly (for learning rates, weight decay).
func WithLog() KnobOption { return func(k *Knob) { k.Log = true } }

// WithGroup tags the knob with its Table 1 group.
func WithGroup(g Group) KnobOption { return func(k *Knob) { k.Group = g } }

// WithDepends declares sampling dependencies.
func WithDepends(names ...string) KnobOption {
	return func(k *Knob) { k.Depends = append(k.Depends, names...) }
}

// WithHooks attaches pre/post sampling hooks (either may be nil).
func WithHooks(pre, post Hook) KnobOption {
	return func(k *Knob) { k.PreHook, k.PostHook = pre, post }
}

// Knobs returns the knobs in sample order.
func (h *HyperSpace) Knobs() ([]*Knob, error) {
	order, err := h.resolve()
	return append([]*Knob(nil), order...), err
}

// resolve returns the knobs in a deterministic topological order over
// Depends edges, computed once and shared: callers must not modify it.
func (h *HyperSpace) resolve() ([]*Knob, error) {
	if h.order != nil {
		return h.order, nil
	}
	names := make([]string, 0, len(h.knobs))
	for n := range h.knobs {
		names = append(names, n)
	}
	sort.Strings(names)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var order []*Knob
	var visit func(n string) error
	visit = func(n string) error {
		k, ok := h.knobs[n]
		if !ok {
			return fmt.Errorf("advisor: dependency on undeclared knob %q", n)
		}
		switch color[n] {
		case gray:
			return fmt.Errorf("advisor: dependency cycle through %q", n)
		case black:
			return nil
		}
		color[n] = gray
		deps := append([]string(nil), k.Depends...)
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		color[n] = black
		order = append(order, k)
		return nil
	}
	for _, n := range names {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	h.order = order
	return order, nil
}

// Sample draws a trial: knobs are sampled in dependency order, hooks run
// around each draw.
func (h *HyperSpace) Sample(id string, rng *sim.RNG) (*Trial, error) {
	knobs, err := h.resolve()
	if err != nil {
		return nil, err
	}
	t := &Trial{ID: id, Params: make(map[string]Value, len(knobs))}
	h.sampleInto(t, knobs, rng)
	return t, nil
}

// sampleInto redraws t in place, so a proposal that scores hundreds of
// candidates can keep drawing into the same trial. It consumes exactly the
// random numbers Sample does.
func (h *HyperSpace) sampleInto(t *Trial, knobs []*Knob, rng *sim.RNG) {
	clear(t.Params)
	for _, k := range knobs {
		if k.PreHook != nil {
			k.PreHook(t, rng)
		}
		t.Params[k.Name] = h.draw(k, rng)
		if k.PostHook != nil {
			k.PostHook(t, rng)
		}
	}
}

func (h *HyperSpace) draw(k *Knob, rng *sim.RNG) Value {
	if k.categorical() {
		return Value{Str: k.Cats[rng.Intn(len(k.Cats))], Cat: true}
	}
	var v float64
	if k.Log {
		v = math.Exp(rng.Uniform(k.logMin, k.logMax)) // rng.LogUniform's expression, logs taken once
	} else {
		v = rng.Uniform(k.Min, k.Max)
	}
	if k.Dtype == Int {
		v = math.Floor(v)
	}
	return Value{Num: v}
}

// Dim returns the dimensionality of the normalized vector encoding:
// one dimension per range knob, one per categorical candidate (one-hot).
func (h *HyperSpace) Dim() (int, error) {
	knobs, err := h.resolve()
	if err != nil {
		return 0, err
	}
	d := 0
	for _, k := range knobs {
		if k.categorical() {
			d += len(k.Cats)
		} else {
			d++
		}
	}
	return d, nil
}

// Vector encodes a trial into [0,1]^Dim for the Gaussian-process advisor:
// range knobs min-max normalized (in log space when Log), categorical knobs
// one-hot.
func (h *HyperSpace) Vector(t *Trial) ([]float64, error) {
	knobs, err := h.resolve()
	if err != nil {
		return nil, err
	}
	return encode(knobs, t, make([]float64, 0, len(knobs)))
}

// encode appends t's Vector encoding to out.
func encode(knobs []*Knob, t *Trial, out []float64) ([]float64, error) {
	for _, k := range knobs {
		v, ok := t.Params[k.Name]
		if !ok {
			return nil, fmt.Errorf("advisor: trial missing knob %q", k.Name)
		}
		if k.categorical() {
			hot := slices.Index(k.Cats, v.Str)
			for i := range k.Cats {
				out = append(out, 0)
				if i == hot {
					out[len(out)-1] = 1
				}
			}
			continue
		}
		lo, hi, x := k.Min, k.Max, v.Num
		if k.Log {
			lo, hi, x = k.logMin, k.logMax, math.Log(x)
		}
		n := (x - lo) / (hi - lo)
		if n < 0 {
			n = 0
		}
		if n > 1 {
			n = 1
		}
		out = append(out, n)
	}
	return out, nil
}

// CIFAR10ConvNetSpace is the Section 7.1.1 search space: the optimization
// hyper-parameters of an 8-layer ConvNet (momentum, learning rate, weight
// decay, dropout, weight-initialization stddev), with the paper's
// dependency example wired in — the learning-rate decay is sampled after,
// and shrunk by, a large learning rate.
func CIFAR10ConvNetSpace() (*HyperSpace, error) {
	h := NewHyperSpace()
	if err := h.AddRangeKnob("learning_rate", Float, 1e-4, 1.0, WithLog()); err != nil {
		return nil, err
	}
	if err := h.AddRangeKnob("momentum", Float, 0.0, 0.99); err != nil {
		return nil, err
	}
	if err := h.AddRangeKnob("weight_decay", Float, 1e-6, 1e-2, WithLog()); err != nil {
		return nil, err
	}
	if err := h.AddRangeKnob("dropout", Float, 0.0, 0.8, WithGroup(GroupArchitecture)); err != nil {
		return nil, err
	}
	if err := h.AddRangeKnob("init_std", Float, 1e-3, 0.5, WithLog()); err != nil {
		return nil, err
	}
	// lr_decay depends on learning_rate: large rates prefer faster decay.
	post := func(t *Trial, rng *sim.RNG) {
		lr, err := t.Float("learning_rate")
		if err != nil {
			return
		}
		d := t.Params["lr_decay"]
		if lr > 0.1 && d.Num < 0.5 {
			d.Num = 0.5 + 0.5*d.Num // bias toward aggressive decay
			t.Params["lr_decay"] = d
		}
	}
	if err := h.AddRangeKnob("lr_decay", Float, 0.0, 1.0,
		WithDepends("learning_rate"), WithHooks(nil, post)); err != nil {
		return nil, err
	}
	return h, nil
}

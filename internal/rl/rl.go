// Package rl implements the paper's reinforcement-learning scheduler for the
// inference service (Sections 2.4 and 5.2): an advantage actor-critic agent
// whose action jointly selects the batch size b ∈ B and the model subset
// v ∈ {0,1}^|M|\{0} (plus an explicit wait), trained online against the
// Equation 7 reward a(M[v])·(b − β·|overdue|).
//
// The state follows the paper: the waiting times of the queued requests
// (padded/truncated to a fixed length), the inference-time table c(m,b), and
// each model's remaining busy time — concatenated into one feature vector
// feeding MLP policy and value networks. Actions whose subsets include busy
// models are masked out at sampling time.
package rl

import (
	"fmt"
	"math"

	"rafiki/internal/infer"
	"rafiki/internal/nn"
	"rafiki/internal/sim"
)

// Config holds the agent's hyper-parameters.
type Config struct {
	// WaitsK is the padded/truncated queue-wait feature length.
	WaitsK int
	// Hidden is the MLP hidden width for both actor and critic.
	Hidden int
	// LR is the actor's Adam learning rate.
	LR float64
	// CriticLR is the critic's learning rate (0 defaults to 5×LR; a faster
	// critic keeps the advantage baseline accurate, which matters here
	// because the model-subset advantage is small relative to batch-size
	// reward variance).
	CriticLR float64
	// Gamma is the discount factor per GammaUnit of virtual time. Decisions
	// arrive at irregular intervals (every arrival tick and every
	// model-free event), so discounting by wall time rather than step count
	// keeps the agent's horizon physical: a cheap 20 ms wait is discounted
	// far less than a 500 ms inference — the semi-MDP correction without
	// which the agent is myopically biased toward instant tiny dispatches.
	Gamma float64
	// GammaUnit is the time quantum (seconds) Gamma refers to.
	GammaUnit float64
	// EntropyCoef weighs the exploration bonus; it decays by EntropyDecay
	// per 1000 steps toward EntropyMin.
	EntropyCoef, EntropyDecay, EntropyMin float64
	// ClipNorm bounds gradient norms per update.
	ClipNorm float64
	// Greedy switches to argmax action selection (evaluation mode).
	Greedy bool
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		WaitsK:       16,
		Hidden:       64,
		LR:           3e-4,
		Gamma:        0.95,
		GammaUnit:    0.1,
		EntropyCoef:  0.02,
		EntropyDecay: 0.97,
		EntropyMin:   0.001,
		ClipNorm:     5,
	}
}

// action is one decodable point in the discrete action space.
type action struct {
	wait     bool
	batchIdx int
	mask     int // model-subset bitmask (non-zero unless wait)
}

// Agent is the actor-critic scheduler. It implements infer.Policy.
type Agent struct {
	Cfg Config

	models  int
	batches []int
	actions []action

	actor     *nn.MLP
	critic    *nn.MLP
	actorOpt  *nn.Adam
	criticOpt *nn.Adam
	rng       *sim.RNG

	// pending TD step: state, chosen action, decision time, reward (set by
	// Feedback).
	havePending bool
	pendingX    []float64
	pendingAct  int
	pendingRew  float64
	pendingNow  float64

	steps int
}

// NewAgent builds an agent for a deployment shape: number of models and the
// candidate batch list.
func NewAgent(cfg Config, models int, batches []int, rng *sim.RNG) (*Agent, error) {
	if models <= 0 || models > 8 {
		return nil, fmt.Errorf("rl: 1..8 models supported, got %d", models)
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("rl: need batch candidates")
	}
	if cfg.WaitsK <= 0 {
		cfg = DefaultConfig()
	}
	a := &Agent{Cfg: cfg, models: models, batches: append([]int(nil), batches...), rng: rng}
	// Action space: wait + (2^models - 1) subsets × |batches|.
	a.actions = append(a.actions, action{wait: true})
	for mask := 1; mask < 1<<models; mask++ {
		for bi := range batches {
			a.actions = append(a.actions, action{batchIdx: bi, mask: mask})
		}
	}
	dim := a.featureDim()
	a.actor = nn.NewMLP([]int{dim, cfg.Hidden, len(a.actions)}, nn.Tanh, nn.Linear, rng.SplitNamed("actor"))
	a.critic = nn.NewMLP([]int{dim, cfg.Hidden, 1}, nn.Tanh, nn.Linear, rng.SplitNamed("critic"))
	a.actorOpt = nn.NewAdam(cfg.LR)
	criticLR := cfg.CriticLR
	if criticLR <= 0 {
		criticLR = 5 * cfg.LR
	}
	a.criticOpt = nn.NewAdam(criticLR)
	return a, nil
}

// ActionSpace returns the number of discrete actions (the paper's
// (2^|M|−1)·|B|, plus the explicit wait).
func (a *Agent) ActionSpace() int { return len(a.actions) }

func (a *Agent) featureDim() int {
	// waits K + queue depth (linear + log) + per-model busy-left + c(m,b).
	return a.Cfg.WaitsK + 2 + a.models + a.models*len(a.batches)
}

// features encodes the paper's state vector, normalized by τ. Queue depth
// appears both linearly (capped) and log-scaled so the critic can see deep
// backlogs during overload.
func (a *Agent) features(s *infer.State) []float64 {
	x := make([]float64, 0, a.featureDim())
	for i := 0; i < a.Cfg.WaitsK; i++ {
		if i < len(s.Waits) {
			x = append(x, s.Waits[i]/s.Tau)
		} else {
			x = append(x, 0) // pad with 0 (paper)
		}
	}
	maxB := float64(s.Batches[len(s.Batches)-1])
	x = append(x, math.Min(float64(s.QueueLen)/maxB, 8))
	x = append(x, math.Log1p(float64(s.QueueLen))/8)
	for m := 0; m < a.models; m++ {
		x = append(x, s.BusyLeft[m]/s.Tau)
	}
	for m := 0; m < a.models; m++ {
		for bi := range a.batches {
			x = append(x, s.LatencyTable[m][bi]/s.Tau)
		}
	}
	return x
}

// validMask flags actions whose model subsets are entirely free.
func (a *Agent) validMask(s *infer.State) []bool {
	ok := make([]bool, len(a.actions))
	for i, act := range a.actions {
		if act.wait {
			ok[i] = true
			continue
		}
		valid := true
		for m := 0; m < a.models; m++ {
			if act.mask&(1<<m) != 0 && !s.FreeModels[m] {
				valid = false
				break
			}
		}
		ok[i] = valid
	}
	return ok
}

// Name implements infer.Policy.
func (a *Agent) Name() string { return "rl-actor-critic" }

// Decide implements infer.Policy: it finishes the pending TD update with the
// new state as bootstrap, then samples the next action from the masked
// policy distribution.
func (a *Agent) Decide(s *infer.State) infer.Action {
	x := a.features(s)
	if a.havePending && !a.Cfg.Greedy {
		a.update(a.pendingX, a.pendingAct, a.pendingRew, x, s.Now-a.pendingNow, false)
	}
	logits := a.actor.Forward(x)
	masked := make([]float64, len(logits))
	valid := a.validMask(s)
	for i, l := range logits {
		if valid[i] {
			masked[i] = l
		} else {
			masked[i] = math.Inf(-1)
		}
	}
	probs := nn.Softmax(masked)
	var idx int
	if a.Cfg.Greedy {
		idx = nn.Argmax(probs)
	} else {
		idx = nn.SampleCategorical(probs, a.rng)
	}
	a.havePending = true
	a.pendingX = x
	a.pendingAct = idx
	a.pendingRew = 0
	a.pendingNow = s.Now
	a.steps++

	act := a.actions[idx]
	if act.wait {
		return infer.Action{Wait: true}
	}
	var models []int
	for m := 0; m < a.models; m++ {
		if act.mask&(1<<m) != 0 {
			models = append(models, m)
		}
	}
	return infer.Action{Batch: a.batches[act.batchIdx], Models: models}
}

// Feedback implements infer.Policy: it records the reward of the action
// just taken; the TD update completes at the next Decide.
func (a *Agent) Feedback(reward float64) {
	if a.havePending {
		a.pendingRew = reward
	}
}

// Flush finishes the final pending update treating the episode as ended.
func (a *Agent) Flush() {
	if a.havePending && !a.Cfg.Greedy {
		a.update(a.pendingX, a.pendingAct, a.pendingRew, nil, 0, true)
	}
	a.havePending = false
}

// entropyCoef returns the decayed exploration weight.
func (a *Agent) entropyCoef() float64 {
	c := a.Cfg.EntropyCoef * math.Pow(a.Cfg.EntropyDecay, float64(a.steps)/1000)
	if c < a.Cfg.EntropyMin {
		c = a.Cfg.EntropyMin
	}
	return c
}

// update performs one TD(0) advantage actor-critic step with semi-MDP
// time-aware discounting over the dt seconds separating the decisions:
//
//	advantage = r + γ^(dt/unit)·V(s') − V(s)
//	actor loss = −advantage·log π(a|s) − entropyCoef·H(π(·|s))
//	critic loss = ½·advantage²  (semi-gradient on V(s))
func (a *Agent) update(x []float64, actIdx int, reward float64, nextX []float64, dt float64, terminal bool) {
	// V(s') first, so the one forward pass on x below both reads V(s) and
	// leaves the activations Backward needs.
	target := reward
	if !terminal && nextX != nil {
		unit := a.Cfg.GammaUnit
		if unit <= 0 {
			unit = 0.1
		}
		if dt < 0 {
			dt = 0
		}
		gamma := math.Pow(a.Cfg.Gamma, dt/unit)
		target += gamma * a.critic.Forward(nextX)[0]
	}
	adv := target - a.critic.Forward(x)[0]

	// Critic: d(½ adv²)/dV(s) = −adv (semi-gradient: target detached). The
	// optimizers leave the gradients zeroed, so Backward starts from zero.
	a.critic.Backward([]float64{-adv})
	a.critic.ClipGradNorm(a.Cfg.ClipNorm)
	a.criticOpt.Step(a.critic)

	// Actor: ∂(−adv·log π(a))/∂logits = adv·(π − onehot(a)); entropy bonus
	// gradient ∂(−H)/∂logit_i = π_i·(log π_i + H).
	logits := a.actor.Forward(x)
	probs := nn.Softmax(logits)
	ent := 0.0
	for _, p := range probs {
		if p > 1e-12 {
			ent -= p * math.Log(p)
		}
	}
	coef := a.entropyCoef()
	grad := make([]float64, len(probs))
	for i, p := range probs {
		g := adv * p
		if i == actIdx {
			g -= adv
		}
		if p > 1e-12 {
			g += coef * p * (math.Log(p) + ent)
		}
		grad[i] = g
	}
	a.actor.Backward(grad)
	a.actor.ClipGradNorm(a.Cfg.ClipNorm)
	a.actorOpt.Step(a.actor)
}

// Steps returns how many decisions the agent has taken.
func (a *Agent) Steps() int { return a.steps }

// SetGreedy toggles evaluation mode (argmax actions, no learning).
func (a *Agent) SetGreedy(greedy bool) { a.Cfg.Greedy = greedy }

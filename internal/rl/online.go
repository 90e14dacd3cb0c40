package rl

import (
	"fmt"
	"math"
	"sync/atomic"

	"rafiki/internal/infer"
	"rafiki/internal/sim"
)

// Online adapts the actor-critic Agent to the serving runtime: it is the
// infer.Policy a live deployment installs when its spec asks for Policy
// "rl", and the one the paper's serving figures run in virtual time. It
// keeps the agent training online — every Equation 7 reward the runtime
// feeds back through Feedback completes a TD step at the next decision.
//
// The runtime serializes Decide/Feedback under its own mutex, so the agent's
// learning state needs no extra locking. What the adapter adds:
//
//   - Feature hygiene for wall-clock states: a model whose replicas are all
//     down reports BusyLeft = +Inf (the honest dispatch barrier), which would
//     poison the MLPs with NaNs. The adapter clamps busy-left and waiting
//     times to a finite multiple of τ before the agent featurizes them; the
//     action mask already excludes busy models, so clamping loses nothing.
//   - A step counter readable outside the runtime lock (atomic), so callers
//     can observe that online learning is advancing while queries are served.
//   - A bound on every wait (infer.Action.Until): the agent cannot name the
//     instant its answer changes, so a wait lasts until the last instant the
//     head request can still meet τ on the fastest single-request pass, or
//     one such pass once that instant has gone. Without it a wait with no
//     later arrival would never be decided again.
type Online struct {
	agent *Agent
	steps atomic.Int64
}

// featureClampTaus bounds busy-left and wait features to this many SLOs. The
// simulator never exceeds single-digit multiples; only the wall-clock +Inf
// down-marker and pathological overload reach the clamp.
const featureClampTaus = 16.0

// NewOnline builds an online-training serving policy for a deployment shape
// (model count and candidate batch sizes), seeded deterministically.
func NewOnline(cfg Config, models int, batches []int, rng *sim.RNG) (*Online, error) {
	agent, err := NewAgent(cfg, models, batches, rng)
	if err != nil {
		return nil, fmt.Errorf("rl: online policy: %w", err)
	}
	return &Online{agent: agent}, nil
}

// Name implements infer.Policy.
func (o *Online) Name() string { return "rl" }

// Decide implements infer.Policy: sanitize the state, let the agent finish
// its pending TD update and pick the next action.
func (o *Online) Decide(s *infer.State) infer.Action {
	act := o.agent.Decide(o.sanitize(s))
	o.steps.Add(1)
	if act.Wait {
		act.Until = waitBound(s)
	}
	return act
}

// waitBound is the instant a wait ends: Now + τ − wait − min_m c(m, b₁),
// or one fastest pass from now once that has passed.
func waitBound(s *infer.State) float64 {
	fastest := math.Inf(1)
	for _, row := range s.LatencyTable {
		fastest = min(fastest, row[0])
	}
	wait := 0.0
	if len(s.Waits) > 0 {
		wait = s.Waits[0]
	}
	if until := s.Now + s.Tau - wait - fastest; until > s.Now {
		return until
	}
	return s.Now + fastest
}

// Feedback implements infer.Policy, delivering the Equation 7 reward of the
// immediately preceding Decide.
func (o *Online) Feedback(reward float64) { o.agent.Feedback(reward) }

// Steps returns how many decisions the agent has taken. Safe to call
// concurrently with serving — this is the observable that online learning is
// live.
func (o *Online) Steps() int64 { return o.steps.Load() }

// Flush finishes the agent's pending TD update as an episode end. A
// deployment calls this when reconciling away from the RL policy so the last
// reward is not dropped.
func (o *Online) Flush() { o.agent.Flush() }

// sanitize clamps unbounded state features. The runtime's State is rebuilt
// per decision, but the adapter still copies the slices it rewrites so the
// engine's view stays untouched.
func (o *Online) sanitize(s *infer.State) *infer.State {
	clamp := featureClampTaus * s.Tau
	needs := false
	for _, b := range s.BusyLeft {
		if b > clamp {
			needs = true
			break
		}
	}
	for _, w := range s.Waits {
		if w > clamp {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	out := *s
	out.BusyLeft = append([]float64(nil), s.BusyLeft...)
	for i, b := range out.BusyLeft {
		if b > clamp {
			out.BusyLeft[i] = clamp
		}
	}
	out.Waits = append([]float64(nil), s.Waits...)
	for i, w := range out.Waits {
		if w > clamp {
			out.Waits[i] = clamp
		}
	}
	return &out
}

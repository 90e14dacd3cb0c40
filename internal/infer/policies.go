package infer

import "math"

// algorithm3 is Algorithm 3's batch rule for the free models in models: it
// dispatches the maximum batch when the queue covers it; otherwise the
// largest candidate batch the queue covers, once the head request's wait
// plus c(b) — the slowest model's latency for that batch — and the back-off
// δ (State.Delta) reach τ. Requests below the smallest candidate batch keep
// waiting for the queue to fill (the straggler behaviour the paper
// attributes to Line 7, which the RL scheduler fixes).
//
// A deadline wait names the instant the rule starts to apply in Until, so
// the driver decides again exactly then; every other wait leaves Until 0.
// models is returned as the dispatch's model subset.
func algorithm3(s *State, models []int) Action {
	maxB := s.Batches[len(s.Batches)-1]
	if s.QueueLen >= maxB {
		return Action{Batch: maxB, Models: models}
	}
	// b = max{b in B, b <= len(q)}
	b, bi := -1, -1
	for i, cand := range s.Batches {
		if cand <= s.QueueLen {
			b, bi = cand, i
		}
	}
	if b < 0 {
		return Action{Wait: true}
	}
	c := 0.0
	for _, m := range models {
		c = max(c, s.LatencyTable[m][bi])
	}
	wait := 0.0
	if len(s.Waits) > 0 {
		wait = s.Waits[0]
	}
	if c+wait+s.Delta >= s.Tau {
		return Action{Batch: b, Models: models}
	}
	// The head's wait grows with the clock: name the first float instant at
	// which the rule, evaluated as above, holds.
	due := func(t float64) bool { return c+(wait+(t-s.Now))+s.Delta >= s.Tau }
	until := s.Now + (s.Tau - s.Delta - c - wait)
	for due(math.Nextafter(until, s.Now)) {
		until = math.Nextafter(until, s.Now)
	}
	for !due(until) {
		until = math.Nextafter(until, math.Inf(1))
	}
	return Action{Wait: true, Until: until}
}

// SyncAll is the first Section 7.2.2 baseline: every batch is served by all
// models synchronously (full ensemble), and on a one-model deployment it is
// Algorithm 3 itself. Batch selection follows Algorithm 3 with the
// ensemble's cost, i.e. the slowest model's latency.
type SyncAll struct {
	// all is the reusable identity Models scratch: Decide runs serialized
	// (under the runtime's dispatch lock) and the runtime does not retain
	// Action.Models, so the full-ensemble subset is built once and reused per
	// decision.
	all []int
}

// Name implements Policy.
func (p *SyncAll) Name() string { return "greedy-sync" }

// Feedback implements Policy (baselines ignore rewards).
func (p *SyncAll) Feedback(float64) {}

// Decide implements Policy.
func (p *SyncAll) Decide(s *State) Action {
	for _, free := range s.FreeModels {
		if !free {
			return Action{Wait: true} // barrier: wait for the full ensemble
		}
	}
	if len(p.all) != len(s.FreeModels) {
		p.all = make([]int, len(s.FreeModels))
		for i := range p.all {
			p.all[i] = i
		}
	}
	return algorithm3(s, p.all)
}

// AsyncEach is the second Section 7.2.2 baseline: models run asynchronously,
// one model per batch of requests — maximum throughput, no ensemble. Each
// free model greedily grabs the next batch per Algorithm 3.
type AsyncEach struct {
	// next rotates which free model grabs the batch so the load spreads.
	next int
	// one is the reusable Models scratch (see SyncAll.all).
	one [1]int
}

// Name implements Policy.
func (p *AsyncEach) Name() string { return "greedy-async" }

// Feedback implements Policy.
func (p *AsyncEach) Feedback(float64) {}

// Decide implements Policy.
func (p *AsyncEach) Decide(s *State) Action {
	// Pick the next free model round-robin.
	model := -1
	n := len(s.FreeModels)
	for off := 0; off < n; off++ {
		i := (p.next + off) % n
		if s.FreeModels[i] {
			model = i
			break
		}
	}
	if model < 0 {
		return Action{Wait: true}
	}
	p.one[0] = model
	act := algorithm3(s, p.one[:])
	if !act.Wait {
		p.next = (model + 1) % n
	}
	return act
}

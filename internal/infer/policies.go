package infer

// GreedySingle is Algorithm 3 for a single deployed model: dispatch the
// maximum batch when the queue covers it; otherwise dispatch the largest
// candidate batch that fits once the head request's remaining slack —
// including the AIMD-style back-off δ (State.Delta) — would be exceeded by
// waiting longer. Requests below the smallest candidate batch keep waiting
// for the queue to fill (the straggler behaviour the paper attributes to
// Line 7, which the RL scheduler fixes).
type GreedySingle struct {
	D *Deployment
	// Model is the index of the deployed model (0 in single-model runs).
	Model int
	// one is the reusable Models scratch: Decide runs serialized (under the
	// runtime's dispatch lock) and the engine copies Action.Models into the
	// outcome, so the same backing array serves every decision.
	one [1]int
}

// Name implements Policy.
func (g *GreedySingle) Name() string { return "greedy" }

// Feedback implements Policy (baselines ignore rewards).
func (g *GreedySingle) Feedback(float64) {}

// Decide implements Policy.
func (g *GreedySingle) Decide(s *State) Action {
	if !s.FreeModels[g.Model] {
		return Action{Wait: true}
	}
	g.one[0] = g.Model
	maxB := s.Batches[len(s.Batches)-1]
	if s.QueueLen >= maxB {
		return Action{Batch: maxB, Models: g.one[:]}
	}
	// b = max{b in B, b <= len(q)}
	b := -1
	bi := -1
	for i, cand := range s.Batches {
		if cand <= s.QueueLen {
			b, bi = cand, i
		}
	}
	if b < 0 {
		return Action{Wait: true} // queue below the smallest batch: wait
	}
	wait := 0.0
	if len(s.Waits) > 0 {
		wait = s.Waits[0]
	}
	if s.LatencyTable[g.Model][bi]+wait+s.Delta >= s.Tau {
		return Action{Batch: b, Models: g.one[:]}
	}
	return Action{Wait: true}
}

// SyncAll is the first Section 7.2.2 baseline: every batch is served by all
// models synchronously (full ensemble). Batch selection follows Algorithm 3
// with the ensemble's cost, i.e. the slowest model's latency.
type SyncAll struct {
	D *Deployment
	// all is the reusable identity Models scratch (see GreedySingle.one):
	// Decide runs serialized and the engine copies Action.Models,
	// so the full-ensemble subset is built once and reused per decision.
	all []int
}

// Name implements Policy.
func (p *SyncAll) Name() string { return "greedy-sync" }

// Feedback implements Policy.
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
	all := p.all
	maxB := s.Batches[len(s.Batches)-1]
	if s.QueueLen >= maxB {
		return Action{Batch: maxB, Models: all}
	}
	b, bi := -1, -1
	for i, cand := range s.Batches {
		if cand <= s.QueueLen {
			b, bi = cand, i
		}
	}
	if b < 0 {
		return Action{Wait: true}
	}
	slowest := 0.0
	for m := range s.FreeModels {
		if c := s.LatencyTable[m][bi]; c > slowest {
			slowest = c
		}
	}
	wait := 0.0
	if len(s.Waits) > 0 {
		wait = s.Waits[0]
	}
	if slowest+wait+s.Delta >= s.Tau {
		return Action{Batch: b, Models: all}
	}
	return Action{Wait: true}
}

// AsyncEach is the second Section 7.2.2 baseline: models run asynchronously,
// one model per batch of requests — maximum throughput, no ensemble. Each
// free model greedily grabs the next batch per Algorithm 3.
type AsyncEach struct {
	D *Deployment
	// next rotates which free model grabs the batch so the load spreads.
	next int
	// one is the reusable Models scratch (see GreedySingle.one).
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
	maxB := s.Batches[len(s.Batches)-1]
	if s.QueueLen >= maxB {
		p.next = (model + 1) % n
		return Action{Batch: maxB, Models: p.one[:]}
	}
	b, bi := -1, -1
	for i, cand := range s.Batches {
		if cand <= s.QueueLen {
			b, bi = cand, i
		}
	}
	if b < 0 {
		return Action{Wait: true}
	}
	wait := 0.0
	if len(s.Waits) > 0 {
		wait = s.Waits[0]
	}
	if s.LatencyTable[model][bi]+wait+s.Delta >= s.Tau {
		p.next = (model + 1) % n
		return Action{Batch: b, Models: p.one[:]}
	}
	return Action{Wait: true}
}

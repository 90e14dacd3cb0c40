package infer

import (
	"math"
	"math/rand"
	"testing"

	"rafiki/internal/sim"
)

// TestAlgorithm3NamesItsInstant: over random τ, δ, c(m,b) and head waits, a
// deadline wait names the first float instant at which the rule holds — a
// decision there dispatches the same batch, one at the float before waits —
// and the head's wait at a later instant t is wait + (t − Now).
func TestAlgorithm3NamesItsInstant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	batches := []int{1, 4, 8, 16}
	waits := 0
	at := func(s State, now float64) *State {
		s.Waits = []float64{s.Waits[0] + (now - s.Now)}
		s.Now = now
		return &s
	}
	for trial := 0; trial < 20000; trial++ {
		tau := 0.01 + 2*rng.Float64()
		delta := 0.4 * tau * rng.Float64()
		models := 1 + rng.Intn(3)
		lat := make([][]float64, models)
		all := make([]int, models)
		for m := range lat {
			all[m] = m
			lat[m] = make([]float64, len(batches))
			for bi := range batches {
				lat[m][bi] = (tau - delta) * rng.Float64()
			}
		}
		bi := rng.Intn(len(batches) - 1) // below the maximum batch
		s := State{
			Now:          100 * rng.Float64(),
			QueueLen:     batches[bi] + rng.Intn(batches[bi+1]-batches[bi]),
			Tau:          tau,
			Delta:        delta,
			Batches:      batches,
			LatencyTable: lat,
		}
		c := 0.0
		for m := range lat {
			c = max(c, lat[m][bi])
		}
		s.Waits = []float64{(tau - delta - c) * rng.Float64()}
		act := algorithm3(&s, all)
		if !act.Wait {
			continue // the rule held at once (wait rounded up to τ − δ − c)
		}
		waits++
		if act.Until <= s.Now {
			t.Fatalf("trial %d: Until %v not after Now %v", trial, act.Until, s.Now)
		}
		if got := algorithm3(at(s, act.Until), all); got.Wait || got.Batch != batches[bi] {
			t.Fatalf("trial %d: decision at Until %v = %+v, want batch %d", trial, act.Until, got, batches[bi])
		}
		if got := algorithm3(at(s, math.Nextafter(act.Until, 0)), all); !got.Wait {
			t.Fatalf("trial %d: decision one float before Until %v = %+v, want a wait", trial, act.Until, got)
		}
	}
	if waits < 19000 {
		t.Fatalf("only %d of 20000 trials waited", waits)
	}
}

// TestLoneRequestDispatchesAtItsDeadline: one request and no later arrival.
// The runtime decides at the instant Algorithm 3 names, so the request's
// planned latency is exactly τ − δ, after one wait and one dispatch.
func TestLoneRequestDispatchesAtItsDeadline(t *testing.T) {
	d := runtimeDeployment(t, 0.25)
	loop := sim.NewEventLoop()
	rt := newBackoffRuntime(t, d, &SyncAll{}, loop, 0)
	var f Future
	loop.Schedule(0.3, func() {
		var err error
		if f, err = rt.Submit("x"); err != nil {
			t.Error(err)
		}
	})
	loop.RunUntil(5)
	st := rt.Stats()
	if st.Served != 1 || st.Dispatches != 1 {
		t.Fatalf("served %d in %d dispatches, want 1/1", st.Served, st.Dispatches)
	}
	if want := d.Tau - d.BackoffDelta; math.Abs(f.Latency()-want) > 1e-12 {
		t.Fatalf("planned latency %.15f, want τ − δ = %.15f", f.Latency(), want)
	}
	if st.Decisions > 3 {
		t.Fatalf("%d decisions for one request, want ≤ 3", st.Decisions)
	}
}

// TestPacedRunDecidesOnDeadlines: a paced open-loop EventLoop run (SyncAll,
// three models, τ = 0.25, Poisson 60/s for 60 s). Every request is served,
// a dispatch takes at most 10 decisions, and no more requests finish past τ
// than under the τ/25 re-decision poll the deadline wake replaced (54 of
// these arrivals, at 16.4 decisions per dispatch).
func TestPacedRunDecidesOnDeadlines(t *testing.T) {
	d := runtimeDeployment(t, 0.25)
	loop := sim.NewEventLoop()
	rt := newBackoffRuntime(t, d, &SyncAll{}, loop, 0)
	arrivals := poissonArrivals(9, 60, 0.01, 60)
	submitAt(t, loop, rt, arrivals)
	loop.RunUntil(70)
	st := rt.Stats()
	perDispatch := float64(st.Decisions) / float64(st.Dispatches)
	t.Logf("served %d, %d dispatches, %.1f decisions per dispatch, overdue %d, δ = %.3fτ",
		st.Served, st.Dispatches, perDispatch, st.Overdue, st.BackoffDelta/d.Tau)
	if st.Served != len(arrivals) {
		t.Fatalf("served %d of %d", st.Served, len(arrivals))
	}
	if perDispatch > 10 {
		t.Fatalf("%.1f decisions per dispatch, want ≤ 10", perDispatch)
	}
	if st.Overdue > 54 {
		t.Fatalf("overdue %d, want ≤ 54 (the poll's reading)", st.Overdue)
	}
}

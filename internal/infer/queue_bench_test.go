package infer

import "testing"

// shiftQueue is the seed revision's Queue: PopN copies the surviving tail
// over the popped prefix, an O(queue length) shift per pop. It is kept here
// only as the benchmark baseline for the ring buffer that replaced it.
type shiftQueue struct {
	reqs []Request
}

func (q *shiftQueue) Push(r Request) { q.reqs = append(q.reqs, r) }

func (q *shiftQueue) PopN(n int) []Request {
	out := append([]Request(nil), q.reqs[:n]...)
	rest := q.reqs[n:]
	copy(q.reqs, rest)
	q.reqs = q.reqs[:len(rest)]
	return out
}

// The benchmarks hold a deep standing queue (the regime the paper's
// overload experiments live in: thousands of requests backed up behind a
// saturated ensemble) and serve batches off its head while arrivals refill
// the tail — the steady-state serving loop.
const benchDepth = 16384

func BenchmarkQueuePopNRing(b *testing.B) {
	q := NewQueue(0)
	var id uint64
	for i := 0; i < benchDepth; i++ {
		q.Push(Request{ID: id})
		id++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := q.PopN(64)
		for range batch {
			q.Push(Request{ID: id})
			id++
		}
	}
}

func BenchmarkQueuePopNShift(b *testing.B) {
	q := &shiftQueue{}
	var id uint64
	for i := 0; i < benchDepth; i++ {
		q.Push(Request{ID: id})
		id++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := q.PopN(64)
		for range batch {
			q.Push(Request{ID: id})
			id++
		}
	}
}

// TestQueueRingWrap exercises the ring across many grow/wrap cycles against
// a straightforward slice model.
func TestQueueRingWrap(t *testing.T) {
	q := NewQueue(0)
	var model []uint64
	var id uint64
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(Request{ID: id, Arrival: float64(id)})
			model = append(model, id)
			id++
		}
	}
	pop := func(n int) {
		got := q.PopN(n)
		for i, r := range got {
			if r.ID != model[i] {
				t.Fatalf("pop[%d] = %d, want %d", i, r.ID, model[i])
			}
		}
		model = model[n:]
	}
	push(5)
	pop(3)
	push(20) // forces growth while head is offset
	pop(10)
	push(100)
	for q.Len() > 7 {
		pop(7)
	}
	pop(q.Len())
	if q.Len() != 0 || len(model) != 0 {
		t.Fatalf("len = %d, model = %d", q.Len(), len(model))
	}
	// Waits view must match arrivals in FIFO order after wrapping.
	push(9)
	w := q.WaitsAppend(float64(id), 4, nil)
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Fatalf("waits not decreasing: %v", w)
		}
	}
}

package infer

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// refFeedback is the latency-feedback plane as a clone-and-swap snapshot
// under a lock: every observation copies the EWMA vectors, and a moved scale
// republishes the scale vector and a rescaled table. The atomics and the
// decision-scratch table must reproduce it bit for bit.
type refFeedback struct {
	d        *Deployment
	obs, raw []float64
	scales   []float64
	table    [][]float64
}

func newRefFeedback(d *Deployment) *refFeedback {
	nm := len(d.Profiles)
	r := &refFeedback{d: d, obs: make([]float64, nm), raw: make([]float64, nm), scales: make([]float64, nm), table: d.LatencyTable()}
	for i := range r.raw {
		r.raw[i], r.scales[i] = 1, 1
	}
	return r
}

func (r *refFeedback) observe(m, batch int, observed float64) {
	if m < 0 || m >= len(r.d.Profiles) || observed <= 0 {
		return
	}
	profiled := r.d.Profiles[m].BatchLatency(batch)
	ratio := observed / profiled
	if ratio < latRatioMin {
		ratio = latRatioMin
	} else if ratio > latRatioMax {
		ratio = latRatioMax
	}
	obs, raw := append([]float64(nil), r.obs...), append([]float64(nil), r.raw...)
	if obs[m] == 0 {
		obs[m] = observed
	} else {
		obs[m] += latEWMAAlpha * (observed - obs[m])
	}
	if ratio != raw[m] {
		raw[m] += latEWMAAlpha * (ratio - raw[m])
	}
	r.obs, r.raw = obs, raw
	applied := appliedScale(raw[m])
	if applied == r.scales[m] {
		return
	}
	scales := append([]float64(nil), r.scales...)
	scales[m] = applied
	base := r.d.LatencyTable()
	table := make([][]float64, len(base))
	for mi, row := range base {
		if scales[mi] == 1 {
			table[mi] = row
			continue
		}
		scaled := make([]float64, len(row))
		for j, v := range row {
			scaled[j] = v * scales[mi]
		}
		table[mi] = scaled
	}
	r.scales, r.table = scales, table
}

// TestLatencyFeedbackMatchesReference feeds 12 000 seeded observations across
// three models — ratios of exactly 1, echoes of the current estimate, ratios
// straddling the dead-band, beyond both clamp bounds, and ignored ones — and
// checks after every one that the EWMAs, the applied scales, the planning
// table and the dispatch latencies are the reference's bit for bit.
func TestLatencyFeedbackMatchesReference(t *testing.T) {
	d := runtimeDeployment(t, 0.25)
	rt, _ := handRuntime(t, d, nil)
	ref := newRefFeedback(d)
	base := d.LatencyTable()
	rng := rand.New(rand.NewPCG(42, 7))
	centers := []float64{1, 1, 0.5, 1.01, 2, 4, 0.01, 35, 0.97}
	var center float64
	var clampLow, clampHigh, echoes, backToOne int
	for i := 0; i < 12000; i++ {
		if i%400 == 0 {
			center = centers[rng.IntN(len(centers))]
		}
		m := rng.IntN(len(d.Profiles))
		b := d.Batches[rng.IntN(len(d.Batches))]
		profiled := d.Profiles[m].BatchLatency(b)
		var observed float64
		switch k := rng.IntN(10); {
		case k < 4:
			observed = center * profiled
		case k < 7:
			observed = center * (1 + 0.06*(rng.Float64()-0.5)) * profiled
		case k == 7:
			observed = ref.obs[m]
			if observed != 0 {
				echoes++
			}
		case k == 8:
			observed = profiled
		default:
			// Ignored: non-positive, or a model out of range.
			observed = -rng.Float64()
			if rng.IntN(2) == 0 {
				m, observed = len(d.Profiles)+rng.IntN(2), profiled
			}
		}
		if ratio := observed / profiled; m < len(d.Profiles) && observed > 0 {
			clampLow += btoi(ratio < latRatioMin)
			clampHigh += btoi(ratio > latRatioMax)
		}
		before := ref.scales
		ref.observe(m, b, observed)
		rt.observeLatency(m, b, observed)

		// The decision path decide takes: observe the replicas, build the
		// state.
		rt.observe(0, &rt.view)
		table := rt.stateAt(0, &rt.view, &rt.st).LatencyTable
		st := rt.Stats()
		obs, scale := st.ModelLatencyEWMA, st.ModelLatencyScale
		for mi := range d.Profiles {
			if before[mi] != 1 && ref.scales[mi] == 1 {
				backToOne++
			}
			if got, want := math.Float64bits(obs[mi]), math.Float64bits(ref.obs[mi]); got != want {
				t.Fatalf("obs %d: model %d EWMA %v, reference %v", i, mi, obs[mi], ref.obs[mi])
			}
			if got, want := rt.lat[mi].raw.Load(), math.Float64bits(ref.raw[mi]); got != want {
				t.Fatalf("obs %d: model %d ratio EWMA %v, reference %v", i, mi, math.Float64frombits(got), ref.raw[mi])
			}
			if math.Float64bits(scale[mi]) != math.Float64bits(ref.scales[mi]) {
				t.Fatalf("obs %d: model %d scale %v, reference %v", i, mi, scale[mi], ref.scales[mi])
			}
			if (&table[mi][0] == &base[mi][0]) != (&ref.table[mi][0] == &base[mi][0]) {
				t.Fatalf("obs %d: model %d shares the profile row %v, reference %v", i, mi, &table[mi][0] == &base[mi][0], &ref.table[mi][0] == &base[mi][0])
			}
			for j := range table[mi] {
				if math.Float64bits(table[mi][j]) != math.Float64bits(ref.table[mi][j]) {
					t.Fatalf("obs %d: c(%d,%d) = %v, reference %v", i, mi, d.Batches[j], table[mi][j], ref.table[mi][j])
				}
			}
			for n := 1; n <= d.MaxBatch(); n++ {
				want := d.Profiles[mi].BatchLatency(n)
				if s := ref.scales[mi]; s != 1 {
					want *= s
				}
				if got := rt.modelLatency(mi, n); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("obs %d: dispatch latency of model %d at %d = %v, reference %v", i, mi, n, got, want)
				}
			}
		}
	}
	if clampLow == 0 || clampHigh == 0 || echoes == 0 || backToOne == 0 {
		t.Fatalf("run missed a case: clamp low %d, clamp high %d, echoes %d, scale back to 1 %d", clampLow, clampHigh, echoes, backToOne)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLatencyFeedbackConcurrentObservers folds the same observations from
// four goroutines while a decision loop keeps reading the planning table, and
// checks the applied scales converge to the serial reference's.
func TestLatencyFeedbackConcurrentObservers(t *testing.T) {
	d := runtimeDeployment(t, 0.25)
	rt, _ := handRuntime(t, d, nil)
	ref := newRefFeedback(d)
	ratios := []float64{3, 1, 0.5}
	const observers, each = 4, 2000
	observe := func(f func(m, b int, observed float64), i int) {
		m := i % len(ratios)
		b := d.Batches[i%len(d.Batches)]
		f(m, b, ratios[m]*d.Profiles[m].BatchLatency(b))
	}
	for i := 0; i < observers*each; i++ {
		observe(ref.observe, i)
	}
	stop := make(chan struct{})
	var reader, wg sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = rt.latencyTable()
				_ = rt.modelLatency(0, 16)
			}
		}
	}()
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g * each; i < (g+1)*each; i++ {
				observe(rt.observeLatency, i)
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	scale := rt.Stats().ModelLatencyScale
	for m := range ratios {
		if scale[m] != ref.scales[m] || rt.latencyTable()[m][0] != ref.table[m][0] {
			t.Fatalf("model %d: scale %v, c(m,1) %v; reference %v, %v", m, scale[m], rt.latencyTable()[m][0], ref.scales[m], ref.table[m][0])
		}
	}
	if ref.scales[0] != 3 || ref.scales[1] != 1 || ref.scales[2] != 0.5 {
		t.Fatalf("reference scales %v, want [3 1 0.5]", ref.scales)
	}
}

// TestObserveLatencyAllocs pins the feedback ingest at zero allocations, for
// observations that move both EWMAs and the applied scale.
func TestObserveLatencyAllocs(t *testing.T) {
	d := runtimeDeployment(t, 0.25)
	rt, _ := handRuntime(t, d, nil)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		m, b := i%3, d.Batches[i%len(d.Batches)]
		rt.observeLatency(m, b, (0.5+float64(i%7)*0.4)*d.Profiles[m].BatchLatency(b))
	})
	if allocs != 0 {
		t.Fatalf("observeLatency allocates %v per call, want 0", allocs)
	}
}

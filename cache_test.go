package rafiki

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// deployCached deploys the trained food models with a prediction cache whose
// admission threshold admits on the given touch count.
func deployCached(t *testing.T, sys *System, models []ModelInstance, spec DeploymentSpec) *InferenceJob {
	t.Helper()
	spec.Models = models
	inf, err := sys.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.StopInference(inf.ID) })
	return inf
}

func TestCacheSpecValidation(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)

	cases := []struct {
		name  string
		cache CacheSpec
		want  string
	}{
		{"negative capacity", CacheSpec{Enabled: true, Capacity: -1}, "cache capacity"},
		{"oversized capacity", CacheSpec{Enabled: true, Capacity: maxCacheCapacity + 1}, "cache capacity"},
		{"negative ttl", CacheSpec{Enabled: true, TTLSeconds: -1}, "cache TTL"},
		{"negative threshold", CacheSpec{Enabled: true, AdmitThreshold: -2}, "admit threshold"},
		{"negative half-life", CacheSpec{Enabled: true, HalfLifeSeconds: -1}, "half-life"},
	}
	for _, tc := range cases {
		spec := DeploymentSpec{Models: models, Cache: &tc.cache}
		if _, err := sys.Deploy(spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// A disabled block is inert whatever its fields, and an enabled one
	// defaults its zero values.
	inf := deployCached(t, sys, models, DeploymentSpec{Cache: &CacheSpec{Enabled: false, Capacity: -5}})
	if inf.Stats().Cache != nil {
		t.Fatal("disabled cache block produced cache stats")
	}
	inf2 := deployCached(t, sys, models, DeploymentSpec{Cache: &CacheSpec{Enabled: true}})
	spec := inf2.Spec()
	if c := spec.Cache; c.Capacity != defaultCacheCapacity || c.TTLSeconds != defaultCacheTTLSeconds ||
		c.AdmitThreshold != defaultCacheAdmitThreshold || c.HalfLifeSeconds != defaultCacheHalfLifeSeconds {
		t.Fatalf("defaulted cache block = %+v", c)
	}
}

// TestQueryCacheReadThrough drives the hit path end to end: the first query
// computes, the admission threshold gates insertion, and once cached the
// answer is served without another engine round while staying byte-equal to
// the computed one.
func TestQueryCacheReadThrough(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	// Threshold 1.5: the first touch (decayed frequency 1) stays cold, the
	// second (≈2 minus a sliver of wall-clock decay) crosses and admits.
	inf := deployCached(t, sys, models, DeploymentSpec{
		Cache: &CacheSpec{Enabled: true, AdmitThreshold: 1.5},
	})

	payload := []byte("cached_pizza.jpg")
	first, err := sys.Query(inf.ID, payload)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.Query(inf.ID, payload) // crosses the threshold: computes and stores
	if err != nil {
		t.Fatal(err)
	}
	third, err := sys.Query(inf.ID, payload) // served from cache
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []*QueryResult{second, third} {
		if r.Label != first.Label || r.Confidence != first.Confidence || len(r.Votes) != len(first.Votes) {
			t.Fatalf("result %d diverged from computed: %+v vs %+v", i, r, first)
		}
	}
	st := inf.Stats()
	if st.Cache == nil {
		t.Fatal("stats missing cache block")
	}
	if st.Cache.Hits != 1 || st.Cache.Admissions != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 admission", st.Cache)
	}
	if st.Queries != 3 {
		t.Fatalf("query count = %d, want 3 (hits count as completed queries)", st.Queries)
	}
	if second == third {
		t.Fatal("the hot leader and a hit were handed the same result")
	}
	// Callers own what they are served: corrupt the hot leader's result and
	// a hit's, then re-query through the SDK and in the REST wire form.
	second.Votes["leader-intruder"] = "bogus"
	third.Votes["intruder"] = "bogus"
	again, err := sys.Query(inf.ID, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Votes) != len(first.Votes) {
		t.Fatalf("caller mutation leaked into the cache: %+v", again.Votes)
	}
	wire, err := sys.QueryJSON(inf.ID, payload)
	if err != nil {
		t.Fatal(err)
	}
	var served QueryResult
	if err := json.Unmarshal(wire, &served); err != nil || len(served.Votes) != len(first.Votes) || served.Label != first.Label {
		t.Fatalf("REST hit after SDK callers mutated their results = %s (%v)", wire, err)
	}
	if desc := inf.Describe(); desc.Status.Cache == nil || desc.Status.Cache.Hits == 0 {
		t.Fatalf("describe status missing cache counters: %+v", desc.Status.Cache)
	}
}

// TestReconcileCacheZeroStaleHits is the invalidation acceptance regression:
// a live PUT that swaps the policy must be followed by zero stale hits — the
// next query recomputes under the new scheduler instead of serving the old
// ensemble's cached answer.
func TestReconcileCacheZeroStaleHits(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf := deployCached(t, sys, models, DeploymentSpec{
		Policy: PolicyGreedy,
		Cache:  &CacheSpec{Enabled: true, AdmitThreshold: 1},
	})

	payload := []byte("stale_check_ramen.jpg")
	greedy, err := sys.Query(inf.ID, payload) // cached immediately (threshold 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy.Votes) != len(models) {
		t.Fatalf("greedy votes = %d, want full ensemble %d", len(greedy.Votes), len(models))
	}
	if _, err := sys.Query(inf.ID, payload); err != nil { // a warm hit
		t.Fatal(err)
	}
	if st := inf.Stats(); st.Cache.Hits != 1 {
		t.Fatalf("warm-up hits = %d, want 1", st.Cache.Hits)
	}

	// Live PUT: swap to the async single-model policy. Every cached result
	// now describes a superseded ensemble.
	if _, err := sys.ReconcileInference(inf.ID, DeploymentSpec{
		Policy: PolicyAsync,
		Cache:  &CacheSpec{Enabled: true, AdmitThreshold: 1},
	}); err != nil {
		t.Fatal(err)
	}
	async, err := sys.Query(inf.ID, payload)
	if err != nil {
		t.Fatal(err)
	}
	// The async policy answers with a single model: a full-ensemble vote set
	// here would prove a stale (greedy-era) hit was served.
	if len(async.Votes) == len(models) {
		t.Fatalf("post-PUT query served the old ensemble's cached votes: %+v", async.Votes)
	}
	st := inf.Stats()
	if st.Cache.StaleEvictions == 0 {
		t.Fatalf("no staleness eviction recorded: %+v", st.Cache)
	}
	if st.Cache.Invalidations == 0 || st.Cache.Epoch == 0 {
		t.Fatalf("policy swap did not bump the cache epoch: %+v", st.Cache)
	}
	if st.Cache.Hits != 1 {
		t.Fatalf("hits after invalidation = %d, want still 1 (zero stale hits)", st.Cache.Hits)
	}
}

// TestScaleInvalidatesCache: a replica-topology change (manual scale) is an
// invalidation event.
func TestScaleInvalidatesCache(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf := deployCached(t, sys, models, DeploymentSpec{
		Replicas: ReplicaBounds{Min: 1, Max: 4},
		Cache:    &CacheSpec{Enabled: true, AdmitThreshold: 1},
	})

	payload := []byte("scaled_salad.jpg")
	if _, err := sys.Query(inf.ID, payload); err != nil {
		t.Fatal(err)
	}
	if err := sys.ScaleInference(inf.ID, "", 2); err != nil {
		t.Fatal(err)
	}
	st := inf.Stats()
	if st.Cache.Invalidations == 0 {
		t.Fatalf("scale did not invalidate: %+v", st.Cache)
	}
	if _, err := sys.Query(inf.ID, payload); err != nil {
		t.Fatal(err)
	}
	if st := inf.Stats(); st.Cache.Hits != 0 || st.Cache.StaleEvictions != 1 {
		t.Fatalf("post-scale lookup stats = %+v, want recompute with one staleness eviction", st.Cache)
	}
}

// TestReconcileCacheEnableDisableRetune drives the cache block itself through
// a live PUT: enable on a running deployment, retune (entries kept), disable.
func TestReconcileCacheEnableDisableRetune(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf := deployCached(t, sys, models, DeploymentSpec{})
	if inf.Stats().Cache != nil {
		t.Fatal("cacheless deployment reports cache stats")
	}

	payload := []byte("toggled_burger.jpg")
	enable := DeploymentSpec{Cache: &CacheSpec{Enabled: true, AdmitThreshold: 1}}
	if _, err := sys.ReconcileInference(inf.ID, enable); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(inf.ID, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(inf.ID, payload); err != nil {
		t.Fatal(err)
	}
	if st := inf.Stats(); st.Cache == nil || st.Cache.Hits != 1 {
		t.Fatalf("live-enabled cache not serving hits: %+v", st.Cache)
	}

	// Retune keeps entries: the warm key still hits under the new capacity.
	retune := DeploymentSpec{Cache: &CacheSpec{Enabled: true, AdmitThreshold: 1, Capacity: 128, TTLSeconds: 30}}
	if _, err := sys.ReconcileInference(inf.ID, retune); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(inf.ID, payload); err != nil {
		t.Fatal(err)
	}
	if st := inf.Stats(); st.Cache.Hits != 2 {
		t.Fatalf("retune dropped the warm entry: %+v", st.Cache)
	}

	if _, err := sys.ReconcileInference(inf.ID, DeploymentSpec{}); err != nil {
		t.Fatal(err)
	}
	if inf.Stats().Cache != nil {
		t.Fatal("disable left cache stats behind")
	}
	if _, err := sys.Query(inf.ID, payload); err != nil {
		t.Fatal(err)
	}
}

// TestTrainCompletionInvalidatesCaches: trainer checkpoint publication bumps
// the epoch of deployments serving those architectures.
func TestTrainCompletionInvalidatesCaches(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf := deployCached(t, sys, models, DeploymentSpec{
		Cache: &CacheSpec{Enabled: true, AdmitThreshold: 1},
	})
	if _, err := sys.Query(inf.ID, []byte("checkpointed_sushi.jpg")); err != nil {
		t.Fatal(err)
	}

	// Retrain the same architectures: fresh checkpoints supersede the cached
	// results. The invalidation fires from the job's monitor goroutine just
	// after Wait returns, so poll briefly.
	arches := make([]string, 0, len(models))
	for _, m := range models {
		arches = append(arches, m.Model)
	}
	retrain, err := sys.Train(TrainConfig{
		Name: "retrain-food", Data: d.Name, Task: ImageClassification,
		InputShape: []int{3, 256, 256}, OutputShape: []int{len(d.Classes)},
		Hyper:  HyperConf{MaxTrials: 4},
		Models: arches,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := retrain.Wait(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := inf.Stats(); st.Cache.Invalidations > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint publication did not invalidate the deployment's cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCollapsedCallersOwnTheirResults: concurrent misses on one hot key
// collapse onto a single leader, and every caller — leader, waiter or hit —
// is handed its own copy, so each may mutate its Votes without touching a
// sibling's or the stored answer (a shared map would also trip -race).
func TestCollapsedCallersOwnTheirResults(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf := deployCached(t, sys, models, DeploymentSpec{
		Cache: &CacheSpec{Enabled: true, AdmitThreshold: 1},
	})
	const callers = 8
	for burst := 0; inf.Stats().Cache.Collapsed == 0; burst++ {
		if burst == 20 {
			t.Fatal("no caller collapsed onto a leader in 20 bursts")
		}
		payload := []byte(fmt.Sprintf("collapsed_%d_sushi.jpg", burst))
		results := make([]*QueryResult, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				res, err := sys.Query(inf.ID, payload)
				if err != nil {
					t.Error(err)
					return
				}
				res.Votes[fmt.Sprintf("intruder-%d", c)] = "bogus"
				results[c] = res
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		for c, res := range results {
			if len(res.Votes) != len(models)+1 {
				t.Fatalf("caller %d sees another caller's mutation: %+v", c, res.Votes)
			}
		}
		hit, err := sys.Query(inf.ID, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(hit.Votes) != len(models) {
			t.Fatalf("caller mutations leaked into the cache: %+v", hit.Votes)
		}
	}
}

// TestQueryHitAllocs: a System.Query cache hit allocates nothing but the
// caller's copy of the stored result.
func TestQueryHitAllocs(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf := deployCached(t, sys, models, DeploymentSpec{
		Cache: &CacheSpec{Enabled: true, AdmitThreshold: 1},
	})
	payload := []byte("allocs_burger.jpg")
	if _, err := sys.Query(inf.ID, payload); err != nil { // the hot leader stores it
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sys.Query(inf.ID, payload); err != nil {
			t.Fatal(err)
		}
	})
	if st := inf.Stats().Cache; st.Hits < 200 || st.Admissions != 1 {
		t.Fatalf("cache stats = %+v, want every measured query a hit", st)
	}
	if allocs > 3 {
		t.Fatalf("System.Query cache hit: %.1f allocations, want at most 3 (the clone)", allocs)
	}
}

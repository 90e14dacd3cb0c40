package predcache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rafiki/internal/sim"
	"rafiki/internal/workload"
)

// fakeClock is a hand-advanced clock for deterministic TTL/decay tests.
type fakeClock struct {
	mu  sync.Mutex
	now float64
}

func (c *fakeClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(dt float64) {
	c.mu.Lock()
	c.now += dt
	c.mu.Unlock()
}

func digestOf(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// get runs one read-through lookup for input, counting engine submissions.
func get(t *testing.T, c *Cache, input []byte, computes *atomic.Int64) (any, Outcome) {
	t.Helper()
	v, out, err := c.GetOrCompute(digestOf(input), input, func() (any, error) {
		computes.Add(1)
		return string(input) + "-result", nil
	})
	if err != nil {
		t.Fatalf("GetOrCompute(%q): %v", input, err)
	}
	return v, out
}

func TestAdmissionThenHitThenTTLExpiry(t *testing.T) {
	clk := &fakeClock{}
	// Half-life far above the TTL so expiry, not hotness decay, is what the
	// post-TTL lookup exercises.
	c := New(Config{Capacity: 64, TTL: 10, AdmitThreshold: 2, HalfLife: 100, Now: clk.Now})
	var computes atomic.Int64
	in := []byte("hot-key")

	// First touch: below threshold → computed cold, not stored.
	if _, out := get(t, c, in, &computes); out != ComputedCold {
		t.Fatalf("first lookup outcome = %v, want ComputedCold", out)
	}
	if c.Len() != 0 {
		t.Fatalf("cold compute stored an entry: len=%d", c.Len())
	}
	// Second touch crosses the threshold → leader compute, stored.
	if _, out := get(t, c, in, &computes); out != ComputedHot {
		t.Fatalf("second lookup outcome = %v, want ComputedHot", out)
	}
	if c.Len() != 1 {
		t.Fatalf("hot compute did not store: len=%d", c.Len())
	}
	// Third: a hit, no engine submission.
	v, out := get(t, c, in, &computes)
	if out != Hit {
		t.Fatalf("third lookup outcome = %v, want Hit", out)
	}
	if v != "hot-key-result" {
		t.Fatalf("hit served %v", v)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("engine submissions = %d, want 2", n)
	}

	// Past the TTL the entry expires: the lookup recomputes and the eviction
	// is accounted as TTL, not staleness.
	clk.Advance(11)
	if _, out := get(t, c, in, &computes); out != ComputedHot {
		t.Fatalf("post-TTL outcome = %v, want ComputedHot", out)
	}
	st := c.Snapshot()
	if st.TTLEvictions != 1 {
		t.Fatalf("ttl evictions = %d, want 1", st.TTLEvictions)
	}
	if st.StaleEvictions != 0 {
		t.Fatalf("stale evictions = %d, want 0", st.StaleEvictions)
	}
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 1/3", st.Hits, st.Misses)
	}
}

// TestAdmissionUniformVsZipf is the admission-policy property: a uniform key
// flood (every key seen ~once within a half-life) stores almost nothing,
// while the same request count drawn Zipfian caches its hot region and serves
// most traffic from it.
func TestAdmissionUniformVsZipf(t *testing.T) {
	const requests = 20000
	run := func(next func(i int) int) Stats {
		clk := &fakeClock{}
		c := New(Config{Capacity: 256, TTL: 1e9, AdmitThreshold: 2, HalfLife: 5, Now: clk.Now})
		var computes atomic.Int64
		for i := 0; i < requests; i++ {
			clk.Advance(0.001)
			key := []byte{byte(next(i)), byte(next(i) >> 8), byte(next(i) >> 16)}
			get(t, c, key, &computes)
		}
		return c.Snapshot()
	}

	// Uniform over a key space far larger than threshold×half-life traffic:
	// repeats within a half-life are rare, so nothing becomes hot.
	uni := run(func(i int) int { return i % 100000 })
	if uni.Admissions > requests/100 {
		t.Fatalf("uniform flood admitted %d entries, want ≈0", uni.Admissions)
	}
	if uni.HitRate > 0.01 {
		t.Fatalf("uniform hit rate = %v, want ≈0", uni.HitRate)
	}

	// Zipfian s=1.1: the head repeats constantly, crosses the threshold and
	// serves the bulk of traffic from cache.
	z, err := workload.NewZipf(100000, 1.1, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int, requests)
	for i := range keys {
		keys[i] = z.Next()
	}
	zipf := run(func(i int) int { return keys[i] })
	if zipf.HitRate < 0.5 {
		t.Fatalf("zipf hit rate = %v, want ≥ 0.5", zipf.HitRate)
	}
	if zipf.Admissions == 0 || zipf.HotKeys == 0 {
		t.Fatalf("zipf admitted %d entries with %d hot keys, want both > 0", zipf.Admissions, zipf.HotKeys)
	}
	if zipf.HitRate < 10*uni.HitRate {
		t.Fatalf("zipf hit rate %v not clearly above uniform %v", zipf.HitRate, uni.HitRate)
	}
}

// TestSingleflightExactlyOneSubmit: N concurrent identical misses on a hot
// key run the computation exactly once; everyone gets the value.
func TestSingleflightExactlyOneSubmit(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 64, TTL: 100, AdmitThreshold: 2, HalfLife: 100, Now: clk.Now})
	in := []byte("stampede")
	key := digestOf(in)

	// Warm the hotness tracker past the threshold without storing a value:
	// two cold computes whose results we discard by invalidating... simpler:
	// threshold 2 means the 2nd miss is already hot, so start concurrency at
	// the 2nd wave with an empty store.
	var warm atomic.Int64
	get(t, c, in, &warm) // cold, not stored

	const waiters = 32
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, waiters)
	outcomes := make([]Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-started
			v, out, err := c.GetOrCompute(key, in, func() (any, error) {
				computes.Add(1)
				<-release // hold every concurrent miss in the flight window
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], outcomes[i] = v, out
		}(i)
	}
	close(started)
	// Hold the leader until every other caller is committed to its flight: a
	// caller counts its miss under the cache lock, in the same critical
	// section that finds the flight, so once the warm-up miss plus all
	// waiters are counted nobody can still arrive late and see a Hit.
	for c.Snapshot().Misses < 1+waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("engine submissions = %d, want exactly 1", n)
	}
	leaders := 0
	for i := range results {
		if results[i] != "value" {
			t.Fatalf("waiter %d got %v", i, results[i])
		}
		if outcomes[i] == ComputedHot {
			leaders++
		} else if outcomes[i] != Collapsed {
			t.Fatalf("waiter %d outcome = %v, want Collapsed", i, outcomes[i])
		}
	}
	if leaders != 1 {
		t.Fatalf("singleflight leaders = %d, want 1", leaders)
	}
	if st := c.Snapshot(); st.Collapsed != waiters-1 {
		t.Fatalf("collapsed counter = %d, want %d", st.Collapsed, waiters-1)
	}
}

// TestInvalidationDropsStaleEntries: after an epoch bump nothing written
// before it is ever served — the next lookup recomputes and the old entry is
// accounted as a staleness eviction.
func TestInvalidationDropsStaleEntries(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 64, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Now: clk.Now})
	var computes atomic.Int64
	in := []byte("k")

	get(t, c, in, &computes) // threshold 1: stored immediately
	if _, out := get(t, c, in, &computes); out != Hit {
		t.Fatalf("warm lookup outcome = %v, want Hit", out)
	}

	c.Invalidate()
	if _, out := get(t, c, in, &computes); out != ComputedHot {
		t.Fatalf("post-invalidation outcome = %v, want ComputedHot (stale entry served?)", out)
	}
	st := c.Snapshot()
	if st.StaleEvictions != 1 {
		t.Fatalf("stale evictions = %d, want 1", st.StaleEvictions)
	}
	if st.Invalidations != 1 || st.Epoch != 1 {
		t.Fatalf("invalidations/epoch = %d/%d, want 1/1", st.Invalidations, st.Epoch)
	}
	// The fresh entry was written under the new epoch: hits resume.
	if _, out := get(t, c, in, &computes); out != Hit {
		t.Fatalf("post-recompute outcome = %v, want Hit", out)
	}
}

// TestInvalidationRacesInFlightCompute: a computation in flight when the
// epoch bumps must not install its (now superseded) result.
func TestInvalidationRacesInFlightCompute(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 64, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Now: clk.Now})
	in := []byte("racing")
	inFlight := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, out, err := c.GetOrCompute(digestOf(in), in, func() (any, error) {
			close(inFlight)
			<-release
			return "old-ensemble", nil
		})
		if err != nil || out != ComputedHot {
			t.Errorf("leader: out=%v err=%v", out, err)
		}
	}()
	<-inFlight
	c.Invalidate() // model set changed mid-compute
	close(release)
	<-done
	if c.Len() != 0 {
		t.Fatalf("superseded in-flight result was cached: len=%d", c.Len())
	}
}

// TestDigestCollisionNeverServesWrongResult: two inputs with the same digest
// must each get their own result.
func TestDigestCollisionNeverServesWrongResult(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 64, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Now: clk.Now})
	const sharedDigest = uint64(42)
	compute := func(s string) func() (any, error) {
		return func() (any, error) { return s + "-result", nil }
	}
	if v, _, _ := c.GetOrCompute(sharedDigest, []byte("a"), compute("a")); v != "a-result" {
		t.Fatalf("a got %v", v)
	}
	// Same digest, different input: must not be served a's entry.
	if v, _, _ := c.GetOrCompute(sharedDigest, []byte("b"), compute("b")); v != "b-result" {
		t.Fatalf("b got %v", v)
	}
	// a's slot may have been replaced, but a hit for either input always
	// matches its own bytes.
	v, out, _ := c.GetOrCompute(sharedDigest, []byte("b"), compute("b"))
	if v != "b-result" {
		t.Fatalf("b repeat got %v", v)
	}
	if out != Hit {
		t.Fatalf("b repeat outcome = %v, want Hit", out)
	}
}

// TestCacheOwnsItsInputAndSharesItsValue: the caller's input buffer is
// borrowed — neither the open flight nor the stored entry aliases it, so the
// caller may overwrite it as soon as GetOrCompute returns — while the value is
// stored as computed and every non-cold outcome returns that very value.
func TestCacheOwnsItsInputAndSharesItsValue(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 64, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Now: clk.Now})
	buf := []byte("borrowed-key")
	key := digestOf(buf)
	val := &struct{ n int }{7}
	v, out, err := c.GetOrCompute(key, buf, func() (any, error) {
		fl := c.flights[key]
		if fl == nil || &fl.input[0] == &buf[0] || string(fl.input) != "borrowed-key" {
			t.Error("the open flight does not own a copy of the input")
		}
		return val, nil
	})
	if err != nil || out != ComputedHot || v != val {
		t.Fatalf("leader = %v, %v, %v; want the computed value, ComputedHot", v, out, err)
	}
	e := c.items[key]
	if e == nil || &e.input[0] == &buf[0] {
		t.Fatal("the stored entry does not own a copy of the input")
	}
	copy(buf, "scribbled!!!")
	fail := func() (any, error) { t.Fatal("recomputed a stored key"); return nil, nil }
	if v, out, _ := c.GetOrCompute(key, []byte("borrowed-key"), fail); out != Hit || v != val {
		t.Fatalf("hit after the caller reused its buffer = %v, %v; want the stored value", v, out)
	}
}

func TestCapacityEvictionLRU(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 4, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Now: clk.Now})
	var computes atomic.Int64
	for i := 0; i < 8; i++ {
		get(t, c, []byte{byte(i)}, &computes)
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", c.Len())
	}
	st := c.Snapshot()
	if st.CapacityEvictions != 4 {
		t.Fatalf("capacity evictions = %d, want 4", st.CapacityEvictions)
	}
}

// TestCapacityIsExact: Capacity bounds the whole cache, however the admitted
// digests fall. Every key here is a multiple of 16, the skew that a cache
// split into 16 per-digest stripes would crowd into one of them.
func TestCapacityIsExact(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 64, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Now: clk.Now})
	lookup := func(i int) Outcome {
		t.Helper()
		_, out, err := c.GetOrCompute(uint64(16*i), []byte{byte(i)}, func() (any, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for i := 0; i < 64; i++ {
		if out := lookup(i); out != ComputedHot {
			t.Fatalf("key %d outcome = %v, want ComputedHot", i, out)
		}
	}
	if st := c.Snapshot(); st.Entries != 64 || st.CapacityEvictions != 0 {
		t.Fatalf("64 admitted keys: entries = %d, capacity evictions = %d; want 64, 0", st.Entries, st.CapacityEvictions)
	}
	// Touch key 0 so key 1 is the LRU entry, then admit a 65th key.
	if out := lookup(0); out != Hit {
		t.Fatalf("key 0 outcome = %v, want Hit", out)
	}
	lookup(64)
	if st := c.Snapshot(); st.Entries != 64 || st.CapacityEvictions != 1 {
		t.Fatalf("65th key: entries = %d, capacity evictions = %d; want 64, 1", st.Entries, st.CapacityEvictions)
	}
	for i := 0; i <= 64; i++ {
		if i == 1 {
			continue
		}
		if out := lookup(i); out != Hit {
			t.Fatalf("key %d outcome = %v after the eviction, want Hit", i, out)
		}
	}
	if out := lookup(1); out != ComputedHot {
		t.Fatalf("LRU key 1 outcome = %v, want ComputedHot (evicted)", out)
	}
}

// TestConfigureLive retunes capacity and TTL on a warm cache.
func TestConfigureLive(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 16, TTL: 1e9, AdmitThreshold: 1, HalfLife: 100, Now: clk.Now})
	var computes atomic.Int64
	for i := 0; i < 16; i++ {
		get(t, c, []byte{byte(i)}, &computes)
	}
	if c.Len() != 16 {
		t.Fatalf("len = %d, want 16", c.Len())
	}
	c.Configure(Config{Capacity: 4, TTL: 5, AdmitThreshold: 1, HalfLife: 100})
	if c.Len() != 4 {
		t.Fatalf("post-shrink len = %d, want 4", c.Len())
	}
	// Surviving entries keep their original expiry; new writes get the new
	// TTL. Advance past the new TTL and insert fresh.
	get(t, c, []byte{99}, &computes)
	clk.Advance(6)
	_, out, _ := c.GetOrCompute(digestOf([]byte{99}), []byte{99}, func() (any, error) {
		computes.Add(1)
		return "fresh", nil
	})
	if out != ComputedHot {
		t.Fatalf("post-TTL-change outcome = %v, want ComputedHot", out)
	}
}

// TestConfigureGrowsAdmissionState reconfigures a cache from capacity 64
// (1 024 tracked keys) to 1 024 (8 192), touches 2 000 distinct keys once
// each, and then touches the first again: the grown tracker still remembers
// it, so that second touch admits it. A tracker that kept the first bound
// resets at its 1 025th key and forgets it.
func TestConfigureGrowsAdmissionState(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Capacity: 64, TTL: 1e9, AdmitThreshold: 2, HalfLife: 100, Now: clk.Now})
	c.Configure(Config{Capacity: 1024, TTL: 1e9, AdmitThreshold: 2, HalfLife: 100})
	var computes atomic.Int64
	for i := 0; i < 2000; i++ {
		if _, out := get(t, c, []byte(fmt.Sprintf("key-%d", i)), &computes); out != ComputedCold {
			t.Fatalf("first touch of key %d = %v, want ComputedCold", i, out)
		}
	}
	if _, out := get(t, c, []byte("key-0"), &computes); out != ComputedHot {
		t.Fatalf("second touch of key 0 = %v, want ComputedHot (admission state lost)", out)
	}
}

// TestConcurrentMixedLoad exercises the cache under -race: readers, writers,
// invalidations and reconfiguration all at once.
func TestConcurrentMixedLoad(t *testing.T) {
	c := New(Config{Capacity: 128, TTL: 1e9, AdmitThreshold: 2, HalfLife: 100})
	z, err := workload.NewZipf(512, 1.1, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 4096)
	for i := range keys {
		k := z.Next()
		keys[i] = []byte{byte(k), byte(k >> 8)}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += 8 {
				in := keys[i]
				if _, _, err := c.GetOrCompute(digestOf(in), in, func() (any, error) {
					return string(in), nil
				}); err != nil {
					t.Error(err)
				}
				if i%512 == 0 {
					c.Invalidate()
				}
				if i%1024 == 0 {
					c.Configure(Config{Capacity: 64 + i%128, TTL: 30, AdmitThreshold: 2, HalfLife: 50})
				}
			}
		}(w)
	}
	wg.Wait()
	c.Snapshot() // must not race
}

// BenchmarkGetOrComputeHit: parallel lookups of a resident 1024-key set, so
// every operation is a Hit; -cpu 1,2 shows what the cache lock costs when
// callers contend on it.
func BenchmarkGetOrComputeHit(b *testing.B) {
	const keys = 1024
	c := New(Config{TTL: 1e9, AdmitThreshold: 1})
	inputs := make([][]byte, keys)
	digests := make([]uint64, keys)
	for i := range inputs {
		inputs[i] = []byte{byte(i), byte(i >> 8), 'k'}
		digests[i] = digestOf(inputs[i])
		if _, out, _ := c.GetOrCompute(digests[i], inputs[i], func() (any, error) { return i, nil }); out != ComputedHot {
			b.Fatalf("warm key %d outcome = %v, want ComputedHot", i, out)
		}
	}
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seed.Add(7919))
		for pb.Next() {
			i = (i + 1) % keys
			if _, out, _ := c.GetOrCompute(digests[i], inputs[i], nil); out != Hit {
				b.Errorf("key %d outcome = %v, want Hit", i, out)
				return
			}
		}
	})
}

// BenchmarkHotTrackerWalk times the two full walks of the hotness tracker,
// which run under the cache lock: Snapshot's hot-key count and the sweep a
// new key triggers once the tracker is full. 32768 keys is the bound at the
// default capacity; 2048 is one sixteenth of it.
func BenchmarkHotTrackerWalk(b *testing.B) {
	for _, n := range []int{2048, 32768} {
		fill := func(t *hotTracker) {
			for k := 0; k < n; k++ {
				t.touch(uint64(k), 0, DefaultHalfLife, DefaultAdmitThreshold)
			}
		}
		b.Run(fmt.Sprintf("hotCount/keys=%d", n), func(b *testing.B) {
			t := newHotTracker(n)
			fill(t)
			for b.Loop() {
				t.hotCount(1, DefaultHalfLife, DefaultAdmitThreshold)
			}
		})
		// Every tracked key is one touch old at the sweep, so the sweep
		// drops them all, as under a uniform key flood.
		b.Run(fmt.Sprintf("sweep/keys=%d", n), func(b *testing.B) {
			t := newHotTracker(n)
			for b.Loop() {
				b.StopTimer()
				fill(t)
				b.StartTimer()
				t.sweep(1, DefaultHalfLife, DefaultAdmitThreshold)
			}
		})
	}
}

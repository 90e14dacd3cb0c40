// Package predcache is a read-through prediction cache for the serving path:
// results are keyed by a 64-bit digest of the query input (scoped to one
// deployment — each deployment owns its own cache), stored in sharded LRU
// segments with a TTL, and only *admitted* once an exponential-decay hotness
// tracker has seen the key often enough — one-off inputs never displace the
// hot region. Concurrent misses on a hot key collapse through a singleflight
// so the engine sees exactly one request, and event-driven invalidation is an
// epoch bump: entries written under a superseded epoch are dropped at lookup
// instead of ever being served (DESIGN.md §11).
//
// Millions of users mean heavily key-skewed traffic; serving the hot region
// from this cache multiplies effective QPS without touching the serving
// runtime at all.
package predcache

import (
	"bytes"
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Cache. Zero values take defaults (see normalize).
type Config struct {
	// Capacity bounds the stored entry count (approximately: it is split
	// across the lock shards). Default 4096.
	Capacity int
	// TTL is the entry lifetime in clock seconds. Default 60.
	TTL float64
	// AdmitThreshold is the decayed touch count at which a key becomes hot
	// and its results cacheable. Default 2: a key must repeat within a couple
	// of half-lives before it is ever stored.
	AdmitThreshold float64
	// HalfLife is the hotness decay half-life in clock seconds. Default 10.
	HalfLife float64
	// Shards is the lock-shard count (default 16, clamped so every shard
	// holds at least one entry).
	Shards int
	// Now supplies the clock (seconds; monotonicity is the caller's
	// contract). Default: wall time.
	Now func() float64
}

// normalize fills defaults and clamps the shard count.
func (c Config) normalize() Config {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.TTL <= 0 {
		c.TTL = 60
	}
	if c.AdmitThreshold <= 0 {
		c.AdmitThreshold = 2
	}
	if c.HalfLife <= 0 {
		c.HalfLife = 10
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Shards > c.Capacity {
		c.Shards = c.Capacity
	}
	if c.Now == nil {
		c.Now = func() float64 { return float64(time.Now().UnixNano()) * 1e-9 }
	}
	return c
}

// Outcome classifies how GetOrCompute produced its value.
type Outcome int

const (
	// Hit: served from the cache, the engine was never touched.
	Hit Outcome = iota
	// Collapsed: a singleflight waiter — the value came from a concurrent
	// leader's computation, not from this caller's own engine submission.
	Collapsed
	// ComputedHot: this caller computed the value as the singleflight leader
	// of a hot key (the result was offered to the cache).
	ComputedHot
	// ComputedCold: this caller computed the value for a cold key — below
	// the admission threshold, so nothing was cached.
	ComputedCold
)

// entry is one cached result.
type entry struct {
	key     uint64
	input   []byte
	val     any
	epoch   uint64
	expires float64
	elem    *list.Element
}

// flight is one in-progress hot-key computation other callers collapse onto.
type flight struct {
	done  chan struct{}
	input []byte
	epoch uint64
	val   any
	err   error
}

// cacheShard is one lock stripe: its LRU segment, its hotness tracker, and
// its in-flight computations.
type cacheShard struct {
	mu      sync.Mutex
	items   map[uint64]*entry
	lru     *list.List // front = most recently used
	hot     *hotTracker
	flights map[uint64]*flight
}

// Stats is a point-in-time snapshot of the cache's counters, JSON-shaped for
// the stats endpoints.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// HitRate is Hits / (Hits + Misses); 0 before any lookup.
	HitRate float64 `json:"hit_rate"`
	// Entries is the live stored-entry count (stale and expired entries not
	// yet dropped at lookup included); HotKeys counts tracked keys currently
	// at or above the admission threshold.
	Entries int `json:"entries"`
	HotKeys int `json:"hot_keys"`
	// Admissions counts hot-key computations whose result was stored.
	Admissions uint64 `json:"admissions"`
	// Collapsed counts singleflight waiters served by a concurrent leader's
	// computation — engine submissions that never happened.
	Collapsed uint64 `json:"singleflight_collapsed"`
	// StaleEvictions counts entries dropped because their epoch was
	// superseded by an invalidation; TTLEvictions entries dropped past their
	// TTL; CapacityEvictions LRU evictions under capacity pressure.
	StaleEvictions    uint64 `json:"stale_evictions"`
	TTLEvictions      uint64 `json:"ttl_evictions"`
	CapacityEvictions uint64 `json:"capacity_evictions"`
	// Invalidations counts epoch bumps; Epoch is the current epoch.
	Invalidations uint64 `json:"invalidations"`
	Epoch         uint64 `json:"epoch"`
}

// Cache is the sharded read-through store. Safe for concurrent use.
type Cache struct {
	// cfgMu guards cfg against live reconfiguration; lookups take it shared.
	cfgMu sync.RWMutex
	cfg   Config

	epoch  atomic.Uint64
	shards []cacheShard

	hits, misses      atomic.Uint64
	admissions        atomic.Uint64
	collapsed         atomic.Uint64
	staleEvictions    atomic.Uint64
	ttlEvictions      atomic.Uint64
	capacityEvictions atomic.Uint64
	invalidations     atomic.Uint64
}

// New builds a cache. The shard count is fixed for the cache's lifetime;
// capacity, TTL, and the admission parameters are live-tunable via Configure.
func New(cfg Config) *Cache {
	cfg = cfg.normalize()
	c := &Cache{cfg: cfg, shards: make([]cacheShard, cfg.Shards)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.items = make(map[uint64]*entry)
		sh.lru = list.New()
		sh.hot = newHotTracker(c.perShardHotCap(cfg))
		sh.flights = make(map[uint64]*flight)
	}
	return c
}

// perShardHotCap bounds each shard's hotness tracker: a few times the cache's
// per-shard capacity, so admission state survives moderate churn without
// growing unboundedly under a uniform key flood.
func (c *Cache) perShardHotCap(cfg Config) int {
	n := 8 * cfg.Capacity / len(c.shards)
	if n < 64 {
		n = 64
	}
	return n
}

// perShardCap splits the configured capacity across shards (at least one
// entry per shard).
func perShardCap(capacity, shards int) int {
	n := capacity / shards
	if n < 1 {
		n = 1
	}
	return n
}

// shardFor maps a key digest onto its lock shard.
func (c *Cache) shardFor(key uint64) *cacheShard {
	// The digest is already mixed (FNV / splitmix at the caller); fold the
	// high bits in so shard count and any downstream map bucketing never see
	// the same low bits.
	return &c.shards[(key^key>>32)%uint64(len(c.shards))]
}

// Configure retunes capacity, TTL and the admission parameters on the live
// cache. Stored entries survive (capacity shrinks trim LRU-first); the shard
// count and clock are fixed at construction.
func (c *Cache) Configure(cfg Config) {
	cfg = cfg.normalize()
	c.cfgMu.Lock()
	cfg.Shards = len(c.shards) // fixed
	cfg.Now = c.cfg.Now
	c.cfg = cfg
	c.cfgMu.Unlock()
	// Trim every shard under the (possibly smaller) new capacity.
	limit := perShardCap(cfg.Capacity, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for sh.lru.Len() > limit {
			c.evictOldest(sh)
		}
		sh.mu.Unlock()
	}
}

// Invalidate publishes an invalidation event: the epoch bumps, and every
// entry written under an earlier epoch is dropped at its next lookup instead
// of ever being served — the deployment's model set, checkpoints, policy or
// spec changed, so cached results describe a superseded ensemble.
func (c *Cache) Invalidate() {
	c.epoch.Add(1)
	c.invalidations.Add(1)
}

// Epoch returns the current invalidation epoch.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// evictOldest drops the shard's LRU tail. The caller holds the shard lock.
func (c *Cache) evictOldest(sh *cacheShard) {
	back := sh.lru.Back()
	if back == nil {
		return
	}
	e := back.Value.(*entry)
	sh.lru.Remove(back)
	delete(sh.items, e.key)
	c.capacityEvictions.Add(1)
}

// removeEntry unlinks e from the shard. The caller holds the shard lock.
func (sh *cacheShard) removeEntry(e *entry) {
	sh.lru.Remove(e.elem)
	delete(sh.items, e.key)
}

// GetOrCompute is the read-through path for one request: key is the input's
// 64-bit digest, input the raw bytes (verified on hit, so a digest collision
// can never serve a wrong result), and compute produces the value on a miss —
// for the serving path, a real engine submission.
//
// A fresh same-epoch entry is a Hit and compute never runs. On a miss the
// hotness tracker is touched: a cold key computes directly and is not stored
// (admission precedes insertion — the whole point of the tracker); a hot key
// enters the singleflight, so concurrent identical misses run compute exactly
// once (leader ComputedHot, everyone else Collapsed) and the result is stored
// unless an invalidation raced the computation.
//
// Stored values are immutable: every outcome but ComputedCold returns the
// value the cache holds, shared with every other caller, so a caller that
// hands it on must copy it first. input may be a borrowed buffer: the cache
// copies it when it opens a flight, and only that copy is ever retained.
func (c *Cache) GetOrCompute(key uint64, input []byte, compute func() (any, error)) (any, Outcome, error) {
	c.cfgMu.RLock()
	cfg := c.cfg
	c.cfgMu.RUnlock()
	now := cfg.Now()
	sh := c.shardFor(key)

	sh.mu.Lock()
	if e, ok := sh.items[key]; ok {
		switch {
		case e.epoch != c.epoch.Load():
			sh.removeEntry(e)
			c.staleEvictions.Add(1)
		case now > e.expires:
			sh.removeEntry(e)
			c.ttlEvictions.Add(1)
		case !bytes.Equal(e.input, input):
			// Digest collision: the slot belongs to another input. Fall
			// through as a miss; the colliding inputs keep fighting over one
			// slot, but neither is ever served the other's result.
		default:
			sh.lru.MoveToFront(e.elem)
			val := e.val
			sh.mu.Unlock()
			c.hits.Add(1)
			return val, Hit, nil
		}
	}
	c.misses.Add(1)
	hot := sh.hot.touch(key, now, cfg.HalfLife, cfg.AdmitThreshold)
	if !hot {
		sh.mu.Unlock()
		v, err := compute()
		return v, ComputedCold, err
	}
	if fl, ok := sh.flights[key]; ok && bytes.Equal(fl.input, input) {
		sh.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, Collapsed, fl.err
		}
		c.collapsed.Add(1)
		return fl.val, Collapsed, nil
	}
	fl := &flight{done: make(chan struct{}), input: bytes.Clone(input), epoch: c.epoch.Load()}
	sh.flights[key] = fl
	sh.mu.Unlock()

	fl.val, fl.err = compute()

	sh.mu.Lock()
	if sh.flights[key] == fl {
		delete(sh.flights, key)
	}
	if fl.err == nil && c.epoch.Load() == fl.epoch {
		e := &entry{
			key:     key,
			input:   fl.input,
			val:     fl.val,
			epoch:   fl.epoch,
			expires: cfg.Now() + cfg.TTL,
		}
		if old, ok := sh.items[key]; ok {
			sh.removeEntry(old)
		}
		e.elem = sh.lru.PushFront(e)
		sh.items[key] = e
		limit := perShardCap(cfg.Capacity, len(c.shards))
		for sh.lru.Len() > limit {
			c.evictOldest(sh)
		}
		c.admissions.Add(1)
	}
	sh.mu.Unlock()
	close(fl.done)
	return fl.val, ComputedHot, fl.err
}

// Len returns the live stored-entry count.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns the cache's counters. Safe to call while serving.
func (c *Cache) Snapshot() Stats {
	c.cfgMu.RLock()
	cfg := c.cfg
	c.cfgMu.RUnlock()
	now := cfg.Now()
	st := Stats{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Admissions:        c.admissions.Load(),
		Collapsed:         c.collapsed.Load(),
		StaleEvictions:    c.staleEvictions.Load(),
		TTLEvictions:      c.ttlEvictions.Load(),
		CapacityEvictions: c.capacityEvictions.Load(),
		Invalidations:     c.invalidations.Load(),
		Epoch:             c.epoch.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.items)
		st.HotKeys += sh.hot.hotCount(now, cfg.HalfLife, cfg.AdmitThreshold)
		sh.mu.Unlock()
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

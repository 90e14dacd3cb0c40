// Package predcache is a read-through prediction cache for the serving path:
// results are keyed by a 64-bit digest of the query input (scoped to one
// deployment — each deployment owns its own cache), stored in one LRU with a
// TTL, and only *admitted* once an exponential-decay hotness tracker has seen
// the key often enough — one-off inputs never displace the hot region.
// Concurrent misses on a hot key collapse through a singleflight so the engine
// sees exactly one request, and event-driven invalidation is an epoch bump:
// entries written under a superseded epoch are dropped at lookup instead of
// ever being served (DESIGN.md §11).
//
// Millions of users mean heavily key-skewed traffic; serving the hot region
// from this cache multiplies effective QPS without touching the serving
// runtime at all.
package predcache

import (
	"bytes"
	"container/list"
	"sync"
	"time"
)

// Defaults for Config's zero fields, shared with the deployment spec's cache
// block: a modest entry bound, a one-minute TTL, and an admission
// threshold/half-life pair under which a key must repeat within a couple of
// half-lives before its results are cached.
const (
	DefaultCapacity       = 4096
	DefaultTTL            = 60 // seconds
	DefaultAdmitThreshold = 2
	DefaultHalfLife       = 10 // seconds
)

// Config tunes a Cache. Zero values take the Default* constants.
type Config struct {
	// Capacity bounds the stored entry count.
	Capacity int
	// TTL is the entry lifetime in clock seconds.
	TTL float64
	// AdmitThreshold is the decayed touch count at which a key becomes hot
	// and its results cacheable.
	AdmitThreshold float64
	// HalfLife is the hotness decay half-life in clock seconds.
	HalfLife float64
	// Now supplies the clock (seconds; monotonicity is the caller's
	// contract). Default: wall time.
	Now func() float64
}

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.Capacity <= 0 {
		c.Capacity = DefaultCapacity
	}
	if c.TTL <= 0 {
		c.TTL = DefaultTTL
	}
	if c.AdmitThreshold <= 0 {
		c.AdmitThreshold = DefaultAdmitThreshold
	}
	if c.HalfLife <= 0 {
		c.HalfLife = DefaultHalfLife
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

// Cache is the read-through store. Safe for concurrent use: one mutex guards
// all of it.
type Cache struct {
	now func() float64 // cfg.Now, fixed at construction; read without mu

	mu      sync.Mutex
	cfg     Config
	items   map[uint64]*entry
	lru     *list.List // front = most recently used
	hot     *hotTracker
	flights map[uint64]*flight
	// st holds the counters and the current epoch; Snapshot fills in the
	// derived fields.
	st Stats
}

// New builds a cache. Capacity, TTL, and the admission parameters are
// live-tunable via Configure; the clock is fixed.
func New(cfg Config) *Cache {
	cfg = cfg.normalize()
	return &Cache{
		now:     cfg.Now,
		cfg:     cfg,
		items:   make(map[uint64]*entry),
		lru:     list.New(),
		hot:     newHotTracker(hotBound(cfg.Capacity)),
		flights: make(map[uint64]*flight),
	}
}

// hotBound is the hotness tracker's key bound for a capacity: a few times
// the capacity, so admission state survives moderate churn without growing
// unboundedly under a uniform key flood.
func hotBound(capacity int) int { return max(1024, 8*capacity) }

// Configure retunes capacity, TTL and the admission parameters on the live
// cache. Stored entries survive (a capacity shrink trims LRU-first), and the
// hotness tracker's bound follows the new capacity (a tracker above a shrunk
// bound sweeps at its next new key); the clock is fixed at construction.
func (c *Cache) Configure(cfg Config) {
	cfg = cfg.normalize()
	c.mu.Lock()
	c.cfg = cfg
	c.hot.maxKeys = hotBound(cfg.Capacity)
	c.trim()
	c.mu.Unlock()
}

// Invalidate publishes an invalidation event: the epoch bumps, and every
// entry written under an earlier epoch is dropped at its next lookup instead
// of ever being served — the deployment's model set, checkpoints, policy or
// spec changed, so cached results describe a superseded ensemble.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.st.Epoch++
	c.st.Invalidations++
	c.mu.Unlock()
}

// trim evicts LRU-first down to the configured capacity. The caller holds mu.
func (c *Cache) trim() {
	for c.lru.Len() > c.cfg.Capacity {
		c.remove(c.lru.Back().Value.(*entry))
		c.st.CapacityEvictions++
	}
}

// remove unlinks e. The caller holds mu.
func (c *Cache) remove(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.items, e.key)
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
	now := c.now()
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		switch {
		case e.epoch != c.st.Epoch:
			c.remove(e)
			c.st.StaleEvictions++
		case now > e.expires:
			c.remove(e)
			c.st.TTLEvictions++
		case !bytes.Equal(e.input, input):
			// Digest collision: the slot belongs to another input. Fall
			// through as a miss; the colliding inputs keep fighting over one
			// slot, but neither is ever served the other's result.
		default:
			c.lru.MoveToFront(e.elem)
			c.st.Hits++
			c.mu.Unlock()
			return e.val, Hit, nil
		}
	}
	c.st.Misses++
	if !c.hot.touch(key, now, c.cfg.HalfLife, c.cfg.AdmitThreshold) {
		c.mu.Unlock()
		v, err := compute()
		return v, ComputedCold, err
	}
	if fl, ok := c.flights[key]; ok && bytes.Equal(fl.input, input) {
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, Collapsed, fl.err
		}
		c.mu.Lock()
		c.st.Collapsed++
		c.mu.Unlock()
		return fl.val, Collapsed, nil
	}
	fl := &flight{done: make(chan struct{}), input: bytes.Clone(input), epoch: c.st.Epoch}
	c.flights[key] = fl
	c.mu.Unlock()

	fl.val, fl.err = compute()

	now = c.now()
	c.mu.Lock()
	if c.flights[key] == fl {
		delete(c.flights, key)
	}
	if fl.err == nil && c.st.Epoch == fl.epoch {
		if old, ok := c.items[key]; ok {
			c.remove(old)
		}
		e := &entry{key: key, input: fl.input, val: fl.val, epoch: fl.epoch, expires: now + c.cfg.TTL}
		e.elem = c.lru.PushFront(e)
		c.items[key] = e
		c.trim()
		c.st.Admissions++
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, ComputedHot, fl.err
}

// Len returns the live stored-entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Snapshot returns the cache's counters. Safe to call while serving; it
// walks the hotness tracker under the lock.
func (c *Cache) Snapshot() Stats {
	now := c.now()
	c.mu.Lock()
	st := c.st
	st.Entries = len(c.items)
	st.HotKeys = c.hot.hotCount(now, c.cfg.HalfLife, c.cfg.AdmitThreshold)
	c.mu.Unlock()
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

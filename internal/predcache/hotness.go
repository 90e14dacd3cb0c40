package predcache

import "math"

// hotEntry is one key's decayed-frequency state.
type hotEntry struct {
	// freq is the exponentially decayed touch count as of last.
	freq float64
	last float64
}

// decayed returns the entry's frequency decayed to time now: each HalfLife
// seconds since the last touch halves it.
func (h *hotEntry) decayed(now, halfLife float64) float64 {
	dt := now - h.last
	if dt <= 0 {
		return h.freq
	}
	return h.freq * math.Exp2(-dt/halfLife)
}

// hotTracker is an exponential-decay frequency tracker deciding cache
// admission: a key is hot once its decayed touch count reaches the admission
// threshold, so steady repeat traffic crosses it within a couple of
// half-lives while one-off inputs decay back out without ever being cached.
//
// The tracker is bounded: when it outgrows maxKeys a sweep drops every entry
// whose decayed frequency fell below half the admission threshold, and if the
// sweep frees nothing (every tracked key genuinely hot, or the threshold is
// at its floor) the tracker resets outright — the TinyLFU-style aging that
// keeps a uniform key flood from pinning stale frequency state forever.
// Genuinely hot keys re-cross the threshold within a handful of touches.
type hotTracker struct {
	keys    map[uint64]*hotEntry
	maxKeys int
}

func newHotTracker(maxKeys int) *hotTracker {
	return &hotTracker{keys: make(map[uint64]*hotEntry), maxKeys: maxKeys}
}

// touch records one access of key at time now and reports whether the key's
// decayed frequency has reached threshold. The caller holds the cache lock.
func (t *hotTracker) touch(key uint64, now, halfLife, threshold float64) bool {
	e := t.keys[key]
	if e == nil {
		if len(t.keys) >= t.maxKeys {
			t.sweep(now, halfLife, threshold)
		}
		e = &hotEntry{}
		t.keys[key] = e
	}
	e.freq = e.decayed(now, halfLife) + 1
	e.last = now
	return e.freq >= threshold
}

// sweep evicts cold entries (decayed frequency below half the admission
// threshold, floored at 1 so a threshold near zero still sheds one-touch
// keys); if nothing qualifies the whole tracker resets.
func (t *hotTracker) sweep(now, halfLife, threshold float64) {
	cut := threshold / 2
	if cut < 1 {
		cut = 1
	}
	for k, e := range t.keys {
		if e.decayed(now, halfLife) < cut {
			delete(t.keys, k)
		}
	}
	if len(t.keys) >= t.maxKeys {
		t.keys = make(map[uint64]*hotEntry)
	}
}

// hotCount reports how many tracked keys are at or above threshold at time
// now. The caller holds the cache lock.
func (t *hotTracker) hotCount(now, halfLife, threshold float64) int {
	n := 0
	for _, e := range t.keys {
		if e.decayed(now, halfLife) >= threshold {
			n++
		}
	}
	return n
}

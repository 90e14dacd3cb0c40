// Package ps implements Rafiki's distributed parameter server (Sections 3
// and 6.2): a sharded, versioned, in-memory store for model checkpoints that
// is shared between the training service (CoStudy warm starts read the best
// trial's parameters) and the inference service (workers fetch deployed
// parameters directly, enabling instant deployment after training).
//
// Two paper-specific behaviours live here:
//
//  1. Shape-matched fetch (Section 4.2.2): during architecture tuning, a new
//     trial initializes each layer from any stored checkpoint layer with an
//     identical shape signature ("we just store all Ws in a parameter server
//     and fetch the shape matched W").
//  2. A hot/cold tier (Section 6.2): frequently accessed parameters stay in
//     memory; cold ones spill to the HDFS-like block store and reload
//     transparently on access.
package ps

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"rafiki/internal/store"
)

// ErrNotFound is returned when a checkpoint key is absent.
var ErrNotFound = errors.New("ps: checkpoint not found")

// Layer is one named parameter tensor of a checkpoint.
type Layer struct {
	Name  string
	Shape []int
	Data  []float64
}

// ShapeKey returns the canonical shape signature used for shape-matched
// parameter reuse, e.g. "conv3:3x3x64".
func (l Layer) ShapeKey() string { return string(l.appendShapeKey(nil)) }

// appendShapeKey appends ShapeKey's signature to b.
func (l *Layer) appendShapeKey(b []byte) []byte {
	b = append(append(b, l.Name...), ':')
	for i, s := range l.Shape {
		if i > 0 {
			b = append(b, 'x')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	return b
}

// clone deep-copies the layer.
func (l *Layer) clone() Layer {
	return Layer{
		Name:  l.Name,
		Shape: append([]int(nil), l.Shape...),
		Data:  append([]float64(nil), l.Data...),
	}
}

// Checkpoint is a full model parameter set plus the metadata the tuning
// service keys warm starts on.
type Checkpoint struct {
	Model    string  // model/architecture name
	TrialID  string  // trial that produced it
	Accuracy float64 // validation accuracy of the trial
	Quality  float64 // latent parameter quality (surrogate state)
	Layers   []Layer

	// Owner is the study/job that produced the checkpoint; Public controls
	// cross-owner sharing (Section 6.2: "The parameters trained for the
	// same model but different datasets can be shared as long as the
	// privacy setting is public").
	Owner  string
	Public bool
}

// Clone deep-copies the checkpoint.
func (c *Checkpoint) Clone() *Checkpoint {
	out := &Checkpoint{
		Model: c.Model, TrialID: c.TrialID, Accuracy: c.Accuracy, Quality: c.Quality,
		Owner: c.Owner, Public: c.Public,
	}
	out.Layers = make([]Layer, len(c.Layers))
	for i := range c.Layers {
		out.Layers[i] = c.Layers[i].clone()
	}
	return out
}

type entry struct {
	key      string
	model    string
	version  int
	hot      bool
	ckpt     *Checkpoint // nil when spilled cold
	accesses int
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// Server is the sharded parameter server. The zero value is not usable; use
// New.
type Server struct {
	shards []*shard
	cold   *store.FS // optional cold tier; nil keeps everything hot

	mu     sync.Mutex
	byName map[string][]string // model -> keys (for best-checkpoint scans)
}

// New returns a parameter server with the given shard count and an optional
// cold-tier block store (nil disables spilling).
func New(shardCount int, cold *store.FS) *Server {
	if shardCount <= 0 {
		shardCount = 8
	}
	s := &Server{cold: cold, byName: map[string][]string{}}
	for i := 0; i < shardCount; i++ {
		s.shards = append(s.shards, &shard{entries: map[string]*entry{}})
	}
	return s
}

// shardFor hashes key with 32-bit FNV-1a, inlined so the lookup allocates
// nothing.
func (s *Server) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return s.shards[int(h)%len(s.shards)]
}

func coldPath(key string) string { return "/ps/" + key }

// Put stores a checkpoint under key, bumping its version. The checkpoint is
// deep-copied so callers may keep mutating theirs.
func (s *Server) Put(key string, c *Checkpoint) error {
	if key == "" {
		return errors.New("ps: empty key")
	}
	if c == nil {
		return errors.New("ps: nil checkpoint")
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		e = &entry{key: key}
		sh.entries[key] = e
	}
	e.version++
	e.ckpt = c.Clone()
	e.model = c.Model
	e.hot = true
	sh.mu.Unlock()

	if !ok {
		s.mu.Lock()
		s.byName[c.Model] = append(s.byName[c.Model], key)
		s.mu.Unlock()
	}
	return nil
}

// Get returns a deep copy of the checkpoint at key, loading it from the cold
// tier if it was spilled.
func (s *Server) Get(key string) (*Checkpoint, int, error) {
	c, version, err := s.access(key)
	if err != nil {
		return nil, 0, err
	}
	return c.Clone(), version, nil
}

// access counts one read of key and returns its stored checkpoint, reloading
// it from the cold tier if it was spilled. The result is shared, not a copy:
// callers may read it without the shard lock because a stored checkpoint is
// never mutated — Put stores a fresh clone and SpillCold only drops the
// entry's reference — but must clone it before handing it out.
func (s *Server) access(key string) (*Checkpoint, int, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	e.accesses++
	if e.ckpt == nil {
		if s.cold == nil {
			return nil, 0, fmt.Errorf("ps: %s spilled but no cold tier", key)
		}
		raw, err := s.cold.Get(coldPath(key))
		if err != nil {
			return nil, 0, fmt.Errorf("ps: reload %s: %w", key, err)
		}
		var c Checkpoint
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&c); err != nil {
			return nil, 0, fmt.Errorf("ps: decode %s: %w", key, err)
		}
		e.ckpt = &c
		e.hot = true
	}
	return e.ckpt, e.version, nil
}

// Delete removes a checkpoint.
func (s *Server) Delete(key string) error {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	var model string
	if ok {
		model = e.model
		delete(sh.entries, key)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if s.cold != nil && s.cold.Exists(coldPath(key)) {
		_ = s.cold.Delete(coldPath(key)) // best effort: tombstoned anyway
	}
	if model != "" {
		s.mu.Lock()
		keys := s.byName[model]
		for i, k := range keys {
			if k == key {
				// Copy, never shift in place: bestForModel scans a
				// snapshot of the list outside s.mu.
				s.byName[model] = slices.Delete(slices.Clone(keys), i, i+1)
				break
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// Keys returns all stored keys, sorted.
func (s *Server) Keys() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k := range sh.entries {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// BestForModel returns the highest-accuracy checkpoint stored for a model —
// the warm-start source CoStudy's master hands to new trials. All
// checkpoints are visible regardless of owner; use BestForModelVisible to
// honour privacy settings.
func (s *Server) BestForModel(model string) (*Checkpoint, error) {
	return s.bestForModel(model, func(*Checkpoint) bool { return true })
}

// BestForModelVisible returns the best checkpoint a given owner may read:
// its own checkpoints plus public ones (the Section 6.2 privacy rule).
func (s *Server) BestForModelVisible(model, owner string) (*Checkpoint, error) {
	return s.bestForModel(model, func(c *Checkpoint) bool {
		return c.Public || c.Owner == owner || c.Owner == ""
	})
}

// BestForOwner returns the best checkpoint a given owner stored for a model,
// ignoring every other owner's — public ones included.
func (s *Server) BestForOwner(model, owner string) (*Checkpoint, error) {
	return s.bestForModel(model, func(c *Checkpoint) bool { return c.Owner == owner })
}

// bestForModel ranks the stored checkpoints of model that pass visible and
// returns a copy of the most accurate (the first stored wins ties). Every
// candidate counts as a read for the cold tier, but only the winner is
// cloned, so the cost does not grow with how much other studies stored.
func (s *Server) bestForModel(model string, visible func(*Checkpoint) bool) (*Checkpoint, error) {
	s.mu.Lock()
	keys := s.byName[model] // Put only appends past this length; Delete copies
	s.mu.Unlock()
	var best *Checkpoint
	for _, k := range keys {
		c, _, err := s.access(k)
		if err != nil || !visible(c) {
			continue
		}
		if best == nil || c.Accuracy > best.Accuracy {
			best = c
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: model %s", ErrNotFound, model)
	}
	return best.Clone(), nil
}

// FetchMatching returns, for each requested layer signature, the matching
// layer from the highest-accuracy checkpoint that contains it (any model; the
// first key in sorted order wins ties). Missing signatures are simply absent
// from the result — the caller random-initializes those layers (Section
// 4.2.2's architecture tuning). Every stored checkpoint counts as one read
// for the cold tier, but the scan reads them in place, compares signatures
// as bytes, and copies only the winning layers.
func (s *Server) FetchMatching(signatures []string) map[string]Layer {
	slot := make(map[string]int, len(signatures)) // signature -> index into best
	for _, sig := range signatures {
		if _, ok := slot[sig]; !ok {
			slot[sig] = len(slot)
		}
	}
	type cand struct {
		layer *Layer // nil until a checkpoint has the signature
		acc   float64
	}
	best := make([]cand, len(slot))
	var sig []byte
	for _, key := range s.Keys() {
		c, _, err := s.access(key)
		if err != nil {
			continue
		}
		for i := range c.Layers {
			l := &c.Layers[i]
			sig = l.appendShapeKey(sig[:0])
			j, ok := slot[string(sig)]
			if !ok {
				continue
			}
			if b := &best[j]; b.layer == nil || c.Accuracy > b.acc {
				*b = cand{layer: l, acc: c.Accuracy}
			}
		}
	}
	out := make(map[string]Layer, len(best))
	for sig, j := range slot {
		if l := best[j].layer; l != nil {
			out[sig] = l.clone()
		}
	}
	return out
}

// SpillCold writes checkpoints accessed fewer than minAccesses times since
// the last spill to the cold tier and drops their in-memory copy. Returns
// the number spilled. No-op without a cold tier.
func (s *Server) SpillCold(minAccesses int) (int, error) {
	if s.cold == nil {
		return 0, nil
	}
	spilled := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.ckpt == nil || e.accesses >= minAccesses {
				e.accesses = 0
				continue
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(e.ckpt); err != nil {
				sh.mu.Unlock()
				return spilled, fmt.Errorf("ps: spill %s: %w", e.key, err)
			}
			if err := s.cold.Put(coldPath(e.key), buf.Bytes()); err != nil {
				sh.mu.Unlock()
				return spilled, fmt.Errorf("ps: spill %s: %w", e.key, err)
			}
			e.ckpt = nil
			e.hot = false
			e.accesses = 0
			spilled++
		}
		sh.mu.Unlock()
	}
	return spilled, nil
}

// HotCount returns how many checkpoints are resident in memory.
func (s *Server) HotCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.ckpt != nil {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval. Spans are recorded only by the benchmark's
// own code, around its calls into a layer; the spans of one request share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is End−Start minus the part of that interval the span's children
	// cover; filled in when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name string, parent, req uint64) uint64 {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Parent: parent, Req: req, Name: name, Start: now})
	id := uint64(len(t.spans))
	t.spans[id-1].ID = id
	t.mu.Unlock()
	return id
}

// add records a span whose interval the caller measured itself (tracer-clock
// nanoseconds).
func (t *tracer) add(name string, parent, req uint64, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: uint64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// end closes a span opened by begin.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// opTrace makes an entry point record spans for a sample of its operations
// once on is set.
type opTrace struct {
	t     *tracer
	every int
	on    *atomic.Bool
}

// sampled reports whether operation i is traced.
func (o *opTrace) sampled(i int) bool {
	return o != nil && o.on.Load() && i%o.every == 0
}

// endSpan closes a span of a sampled operation; id 0 (not sampled) is a no-op
// even on a nil opTrace.
func (o *opTrace) endSpan(id uint64) {
	if id != 0 {
		o.t.end(id)
	}
}

// Trace headers carry the client's span across the loopback connection, so
// the server-side span hangs under it.
const (
	headerSpan = "X-Bench-Span"
	headerReq  = "X-Bench-Req"
)

// middleware records a rest.handle span around the REST server for requests
// that carry the trace headers.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(headerSpan)
		if h == "" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(h, 10, 64) // our own header; 0 on garbage
		req, _ := strconv.ParseUint(r.Header.Get(headerReq), 10, 64)
		id := t.begin("rest.handle", parent, req)
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

// finish computes every span's self time and returns the spans with the self
// time summed by name (µs).
func (t *tracer) finish() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := map[string]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < s.Start {
			s.End = s.Start // never closed: the run failed inside it
		}
		// Cover of the children, clipped to the parent and merged so
		// overlapping children (parallel model passes) count once.
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, edge), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
		byName[s.Name] += float64(s.Self) / 1e3
	}
	return t.spans, byName
}

// traceFile is what the traced run writes.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Host       string             `json:"host"`
	Metrics    map[string]metric  `json:"per_layer_metrics"`
	SelfTimeUs map[string]float64 `json:"self_time_us_by_span_name"`
	Counts     map[string]int     `json:"span_count_by_name"`
	Spans      []span             `json:"spans"`
}

func writeTrace(path string, tf *traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	return f.Close()
}

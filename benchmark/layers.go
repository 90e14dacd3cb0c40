package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// layerMetric names one per-layer metric; BENCHMARK.json lists exactly these
// (a test compares the two). A metric the traced workload's path never
// touches reads 0.
type layerMetric struct {
	name, unit, better string
}

var perLayer = []layerMetric{
	// Layer ladder: the same inputs at entries http → query (cache on) →
	// query (cache off), same callers; adjacent differences.
	{"rest.handle_us_per_op", "us", "lower"},
	{"rest.cpu_us_per_op", "us", "lower"},
	{"rest.allocs_per_op", "count", "lower"},
	{"rest.bytes_per_op", "bytes", "lower"},
	{"predcache.saved_us_per_op", "us", "higher"},
	{"sdk.query_us_per_op", "us", "lower"},
	{"sdk.query_cpu_us_per_op", "us", "lower"},
	{"sdk.query_allocs_per_op", "count", "lower"},
	// The workload's own traced window and its stats scrapes.
	{"rest.status_429", "count", "lower"},
	{"rest.status_5xx", "count", "lower"},
	{"sdk.deploy_ms", "ms", "lower"},
	{"sdk.first_query_ms", "ms", "lower"},
	{"sdk.train_submit_ms", "ms", "lower"},
	{"store.import_ms", "ms", "lower"},
	{"predcache.hit_share", "share", "higher"},
	{"predcache.collapsed_share", "share", "higher"},
	{"predcache.admissions", "count", "lower"},
	{"predcache.evictions", "count", "lower"},
	{"infer.batch_size_mean", "count", "higher"},
	{"infer.dispatches_per_kop", "count", "lower"},
	{"infer.overdue_share", "share", "lower"},
	{"infer.dropped", "count", "lower"},
	{"infer.stolen", "count", "lower"},
	{"infer.plan_residual_ms", "ms", "lower"},
	{"executor.busy_share", "share", "lower"},
	{"executor.queue_depth_max", "count", "lower"},
	{"executor.rejected", "count", "lower"},
	{"tune.study_ms_max", "ms", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	{"loadgen.latency_p99_ms", "ms", "lower"},
	{"proc.heap_live_mb", "MB", "lower"},
	{"proc.gc_pause_ms_total", "ms", "lower"},
	{"proc.goroutines_peak", "count", "lower"},
	{"trace.overhead_share", "share", "lower"},
	// Backend tap: the deployment pointed at the benchmark's own model server.
	{"infer.queue_wait_ms_p50", "ms", "lower"},
	{"infer.queue_wait_ms_p99", "ms", "lower"},
	{"infer.completion_us_p50", "us", "lower"},
	{"infer.models_per_batch_mean", "count", "higher"},
	{"backend.exec_ms_per_pass", "ms", "lower"},
	{"backend.exec_us_per_req", "us", "lower"},
	{"backend.errors", "count", "lower"},
	{"backend.retries", "count", "lower"},
	// Direct probes.
	{"host.spin_ms", "ms", "lower"},
	{"host.memwalk_ms", "ms", "lower"},
	{"predcache.lookup_ns_hit", "ns", "lower"},
	{"predcache.lookup_ns_miss", "ns", "lower"},
	{"nn.forward_ns_per_sample", "ns", "lower"},
	{"ensemble.vote_ns_per_op", "ns", "lower"},
	{"gp.fit_ms_n150", "ms", "lower"},
	{"gp.predict_us_n150", "us", "lower"},
	{"advisor.next_ms_p50", "ms", "lower"},
	{"advisor.collect_us", "us", "lower"},
	{"ps.put_us", "us", "lower"},
	{"ps.get_us", "us", "lower"},
	{"ps.fetch_matching_us", "us", "lower"},
	{"surrogate.epoch_us", "us", "lower"},
	{"tune.trial_us_p50", "us", "lower"},
	{"tune.early_stop_share", "share", "higher"},
	{"tune.warm_start_share", "share", "higher"},
}

// scrape reads the deployment's stats the way an operator would: through
// GET .../stats when the REST server is up, else the same JSON document
// encoded straight from the SDK. Decoding into a map keeps the benchmark
// independent of the stats struct: a key a later change removes reads as
// absent, it does not break the build.
func (d *deployment) scrape() (map[string]any, error) {
	var doc []byte
	if d.srv != nil {
		resp, err := d.clients[0].Get(d.statsURL)
		if err != nil {
			return nil, err
		}
		doc, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close() // fully read
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		if doc, err = json.Marshal(d.job.Stats()); err != nil {
			return nil, err
		}
	}
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return m, nil
}

// num reads a number at a dotted path of a scrape; ok is false when absent.
func num(m map[string]any, path ...string) (float64, bool) {
	var cur any = m
	for _, p := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = obj[p]; !ok {
			return 0, false
		}
	}
	v, ok := cur.(float64)
	return v, ok
}

// nums reads an array of numbers.
func nums(m map[string]any, key string) []float64 {
	arr, _ := m[key].([]any)
	var out []float64
	for _, v := range arr {
		if f, ok := v.(float64); ok {
			out = append(out, f)
		}
	}
	return out
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// layerRun accumulates a traced run's per-layer values and what was absent.
type layerRun struct {
	b      *bench
	t      *tracer
	m      map[string]float64
	absent map[string]bool
	counts sliceCounts
}

// delta is last−first of a scraped counter; ok is false when the stats no
// longer carry the key.
func delta(scrapes []map[string]any, path ...string) (float64, bool) {
	first, ok0 := num(scrapes[0], path...)
	last, ok1 := num(scrapes[len(scrapes)-1], path...)
	return last - first, ok0 && ok1
}

func (r *layerRun) set(name string, v float64, ok bool) {
	if !ok {
		r.absent[name] = true
		return
	}
	r.m[name] = v
}

// specWith overrides top-level blocks of a spec literal.
func specWith(spec string, overrides map[string]any) (string, error) {
	var m map[string]any
	if err := json.Unmarshal([]byte(spec), &m); err != nil {
		return "", err
	}
	for k, v := range overrides {
		m[k] = v
	}
	b, err := json.Marshal(m)
	return string(b), err
}

// tracedRun prints every per-layer metric for one workload and writes the
// spans to path. Three sources: the workload's own window with tracing
// switched on halfway through (which also yields the tracing overhead), the
// layer ladder and backend tap for the serving workloads, and the direct
// probes.
func (b *bench) tracedRun(name, path string) (*result, error) {
	r := &layerRun{b: b, t: newTracer(), m: map[string]float64{}, absent: map[string]bool{}}
	w, serving := findServing(name)
	var err error
	switch {
	case serving:
		err = r.serving(w)
	case name == trainWorkloadName:
		err = r.train()
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	if err != nil {
		return nil, err
	}
	if err := runProbes(r.t, b.seed, r.m); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: r.counts.attempted, Failed: r.counts.rejected + r.counts.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(b.out, "%-30s %16s %-6s\n", "per-layer metric", "value", "unit")
	for _, lm := range perLayer {
		res.Metrics[lm.name] = metric{Value: r.m[lm.name], Unit: lm.unit}
		note := ""
		if r.absent[lm.name] {
			note = "  (absent from the stats)"
		}
		fmt.Fprintf(b.out, "%-30s %16.6f %-6s%s\n", lm.name, r.m[lm.name], lm.unit, note)
	}
	if share := float64(res.Failed) / float64(max(res.Attempted, 1)); share > 0.01 {
		res.Correct = false
		fmt.Fprintf(b.out, "CHECK FAILED: %.2f%% of the operations failed or were refused (limit 1%%)\n", 100*share)
	}
	spans, self := r.t.finish()
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
	}
	host := fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d %s kernel=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease())
	if err := writeTrace(path, &traceFile{Workload: name, Seed: b.seed, Host: host, Metrics: res.Metrics, SelfTimeUs: self, Counts: counts, Spans: spans}); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(b.out, "trace: %d spans written to %s\n", len(spans), path)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.out, "self time %-28s %14.1f us over %d spans\n", n, self[n], counts[n])
	}
	return res, nil
}

// traceEvery thins the traced operations so a saturated window records a few
// thousand spans a second, not a few hundred thousand.
func (w servingWorkload) traceEvery() int {
	switch {
	case w.rate > 0:
		return 1
	case w.http:
		return 8
	default:
		return 64
	}
}

// serving runs the three serving sources.
func (r *layerRun) serving(w servingWorkload) error {
	b := r.b
	window := b.sliceDur() * slicesPerRep
	in, err := w.inputs(b.seed, 0, window)
	if err != nil {
		return err
	}

	// 1. The workload's own window; spans from the middle edge on.
	var wrap wrapHandler
	if w.http {
		wrap = r.t.middleware
	}
	d, err := newDeployment(w, b.repSeed(0), "", wrap)
	if err != nil {
		return err
	}
	defer func() { _ = d.close() }() // closed explicitly below; this covers the error returns
	r.m["sdk.deploy_ms"] = d.steps.deployMs
	r.m["sdk.train_submit_ms"] = d.steps.trainSubmitMs
	r.m["store.import_ms"] = d.steps.importMs
	r.m["tune.study_ms_max"] = d.steps.trainMs
	t0 := time.Now()
	if _, err := d.sys.Query(d.job.ID, payloadFor(1<<41, foodClasses[0])); err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	r.m["sdk.first_query_ms"] = since(t0)
	if err := d.primeCache(in.hotSet); err != nil {
		return err
	}
	var tracing atomic.Bool
	var scrapes []map[string]any
	var scrapeErr error
	statuses := make([]httpStatus, d.callers())
	lr := runLoad(loadPlan{
		callers: d.callers(), warmOps: w.warmOps, slices: slicesPerRep, sliceDur: b.sliceDur(),
		limit: w.limit, dueNs: in.dueNs,
		atEdge: func(k int) {
			s, err := d.scrape()
			if err != nil {
				scrapeErr = err
				return
			}
			scrapes = append(scrapes, s)
			if k == slicesPerRep/2 {
				tracing.Store(true)
			}
		},
	}, b.arena, d.op(in, statuses, &opTrace{t: r.t, every: w.traceEvery(), on: &tracing}))
	if scrapeErr != nil {
		return fmt.Errorf("stats scrape: %w", scrapeErr)
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.m["proc.heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	if err := d.close(); err != nil {
		return err
	}
	ws, err := lr.stats()
	if err != nil {
		return err
	}
	r.counts = ws.counts
	half := slicesPerRep / 2
	if in.dueNs == nil {
		r.m["trace.overhead_share"] = 1 - median(ws.thr[half:])/median(ws.thr[:half])
	} else {
		// An open loop's throughput is its schedule; tracing shows as CPU.
		r.m["trace.overhead_share"] = median(ws.cpu[half:])/median(ws.cpu[:half]) - 1
	}
	if ws.p99Supported {
		r.m["loadgen.latency_p99_ms"] = ws.p99
	}
	if len(ws.lateMs) > 0 {
		r.m["loadgen.late_ms_p99"] = percentile(ws.lateMs, 0.99)
	}
	r.m["proc.gc_pause_ms_total"] = ws.gcPauseMs
	r.m["proc.goroutines_peak"] = float64(lr.goroutinesPeak)
	for _, st := range statuses {
		r.m["rest.status_429"] += float64(st.tooMany)
		r.m["rest.status_5xx"] += float64(st.serverErr)
	}
	r.fromScrapes(scrapes, w, median(ws.p50))

	// 2. The layer ladder, on the same inputs with the same callers.
	callers := w.callers
	if w.rate > 0 || callers == 0 {
		callers = 32
		if w.http {
			callers = runtime.NumCPU()
		}
	}
	var rungs [3]*windowStats
	for i, shape := range []struct{ http, cache bool }{{true, true}, {false, true}, {false, false}} {
		if rungs[i], err = r.rung(w, in, shape.http, shape.cache, callers); err != nil {
			return fmt.Errorf("ladder rung %d: %w", i, err)
		}
	}
	httpOn, queryOn, queryOff := rungs[0], rungs[1], rungs[2]
	r.m["rest.handle_us_per_op"] = 1e3 * (httpOn.meanLatMs - queryOn.meanLatMs)
	r.m["rest.cpu_us_per_op"] = median(httpOn.cpu) - median(queryOn.cpu)
	r.m["rest.allocs_per_op"] = httpOn.allocsPerOp - queryOn.allocsPerOp
	r.m["rest.bytes_per_op"] = httpOn.bytesPerOp - queryOn.bytesPerOp
	r.m["predcache.saved_us_per_op"] = 1e3 * (queryOff.meanLatMs - queryOn.meanLatMs)
	r.m["sdk.query_us_per_op"] = 1e3 * queryOff.meanLatMs
	r.m["sdk.query_cpu_us_per_op"] = median(queryOff.cpu)
	r.m["sdk.query_allocs_per_op"] = queryOff.allocsPerOp
	fmt.Fprintf(b.out, "ladder (%d callers): cpu us/op http %.2f >= query+cache %.2f ; query %.2f | mean latency us http %.1f query+cache %.1f query %.1f\n",
		callers, median(httpOn.cpu), median(queryOn.cpu), median(queryOff.cpu),
		1e3*httpOn.meanLatMs, 1e3*queryOn.meanLatMs, 1e3*queryOff.meanLatMs)

	// 3. The backend tap.
	return r.tap(w, in)
}

// fromScrapes turns the window's stats scrapes (one per slice edge) into the
// infer, executor and predcache figures.
func (r *layerRun) fromScrapes(scrapes []map[string]any, w servingWorkload, wallP50Ms float64) {
	last := scrapes[len(scrapes)-1]
	served, okServed := delta(scrapes, "served")
	v, ok := num(last, "batch_size_mean")
	r.set("infer.batch_size_mean", v, ok)
	v, ok = delta(scrapes, "dispatches")
	r.set("infer.dispatches_per_kop", 1000*v/max(served, 1), ok && okServed)
	v, ok = delta(scrapes, "overdue")
	r.set("infer.overdue_share", v/max(served, 1), ok && okServed)
	v, ok = delta(scrapes, "dropped")
	r.set("infer.dropped", v, ok)
	v, ok = delta(scrapes, "stolen")
	r.set("infer.stolen", v, ok)
	_, cached := last["cache"]
	if !cached {
		// Wall median minus the engine's own median: what the system adds
		// beyond its plan. With the cache on the wall median is the hit
		// path, which the engine never sees, so there is nothing to compare.
		v, ok = num(last, "p50_latency_seconds")
		r.set("infer.plan_residual_ms", wallP50Ms-1e3*v/w.speedup, ok)
	}
	v, ok = delta(scrapes, "exec_rejected")
	r.set("executor.rejected", v, ok)
	busy, depth := 0.0, 0.0
	for _, s := range scrapes {
		if workers := sum(nums(s, "exec_workers")); workers > 0 {
			busy += sum(nums(s, "exec_busy")) / workers / float64(len(scrapes))
		}
		for _, q := range nums(s, "exec_queue_depth") {
			depth = max(depth, q)
		}
	}
	_, ok = last["exec_workers"]
	r.set("executor.busy_share", busy, ok)
	r.set("executor.queue_depth_max", depth, ok)
	if !cached {
		return
	}
	hits, ok1 := delta(scrapes, "cache", "hits")
	misses, ok2 := delta(scrapes, "cache", "misses")
	r.set("predcache.hit_share", hits/max(hits+misses, 1), ok1 && ok2)
	v, ok = delta(scrapes, "cache", "singleflight_collapsed")
	r.set("predcache.collapsed_share", v/max(hits+misses, 1), ok && ok1 && ok2)
	v, ok = delta(scrapes, "cache", "admissions")
	r.set("predcache.admissions", v, ok)
	evictions, ok := 0.0, true
	for _, k := range []string{"stale_evictions", "ttl_evictions", "capacity_evictions"} {
		v, present := delta(scrapes, "cache", k)
		evictions, ok = evictions+v, ok && present
	}
	r.set("predcache.evictions", evictions, ok)
}

// rung measures one ladder entry: a fresh deployment of the workload's spec
// with the cache switched as asked, driven closed-loop for two short slices.
func (r *layerRun) rung(w servingWorkload, in *queryInputs, viaHTTP, cache bool, callers int) (*windowStats, error) {
	spec, err := specWith(w.spec, map[string]any{"cache": map[string]any{"enabled": cache}})
	if err != nil {
		return nil, err
	}
	w.http, w.callers, w.rate = viaHTTP, callers, 0
	d, err := newDeployment(w, r.b.repSeed(0), spec, nil)
	if err != nil {
		return nil, err
	}
	defer func() { _ = d.close() }()
	if cache {
		if err := d.primeCache(in.hotSet); err != nil {
			return nil, err
		}
	}
	name := "ladder.query"
	if viaHTTP {
		name = "ladder.http"
	}
	if cache {
		name += "+cache"
	}
	id := r.t.begin(name, 0, 0)
	lr := runLoad(loadPlan{
		callers: callers, warmOps: w.warmOps / 4, slices: 2, sliceDur: r.b.sliceDur() / 2, limit: w.limit,
	}, r.b.arena, d.op(in, nil, nil))
	r.t.end(id)
	if err := d.close(); err != nil {
		return nil, err
	}
	return lr.stats()
}

// tap deploys the workload's spec on the benchmark's own model server and
// drives it with the workload's own loop shape for two short slices.
func (r *layerRun) tap(w servingWorkload, in *queryInputs) error {
	stub, err := newModelStub(r.t, r.b.seed)
	if err != nil {
		return err
	}
	defer func() { _ = stub.close() }()
	spec, err := specWith(w.spec, map[string]any{
		"backend": map[string]any{"type": "http", "url": stub.url},
		"cache":   map[string]any{"enabled": false},
	})
	if err != nil {
		return err
	}
	w.http = false
	if w.callers == 0 {
		w.callers = runtime.NumCPU()
	}
	d, err := newDeployment(w, r.b.repSeed(0), spec, nil)
	if err != nil {
		return err
	}
	defer func() { _ = d.close() }()
	var done []*tapReq
	var last map[string]any
	var scrapeErr error
	lr := runLoad(loadPlan{
		callers: w.callers, warmOps: w.warmOps / 4, slices: 2, sliceDur: r.b.sliceDur() / 2, limit: w.limit, dueNs: in.dueNs,
		atEdge: func(int) { last, scrapeErr = d.scrape() },
	}, r.b.arena, stub.tapOp(d, in, w.traceEvery(), &done))
	if scrapeErr != nil {
		return fmt.Errorf("tap stats scrape: %w", scrapeErr)
	}
	if err := d.close(); err != nil {
		return err
	}
	if _, err := lr.stats(); err != nil {
		return fmt.Errorf("backend tap: %w", err)
	}
	var waitMs, completionUs []float64
	for _, q := range done {
		if q.firstPass == 0 || q.lastPassEnd == 0 {
			continue // failed before any pass
		}
		waitMs = append(waitMs, float64(q.firstPass-q.start)/1e6)
		completionUs = append(completionUs, float64(q.end-q.lastPassEnd)/1e3)
	}
	if len(waitMs) == 0 || stub.passes == 0 {
		return fmt.Errorf("backend tap: the model server saw no pass")
	}
	sort.Float64s(waitMs)
	r.m["infer.queue_wait_ms_p50"] = percentile(waitMs, 0.5)
	r.m["infer.queue_wait_ms_p99"] = percentile(waitMs, 0.99)
	r.m["infer.completion_us_p50"] = median(completionUs)
	r.m["infer.models_per_batch_mean"] = float64(stub.passes) / float64(len(stub.batches))
	r.m["backend.exec_ms_per_pass"] = float64(stub.passNs) / float64(stub.passes) / 1e6
	r.m["backend.exec_us_per_req"] = float64(stub.passNs) / float64(stub.batched) / 1e3
	v, ok := num(last, "backend_errors")
	r.set("backend.errors", v, ok)
	v, ok = num(last, "backend_retries")
	r.set("backend.retries", v, ok)
	return nil
}

// train runs the training workload's traced window: studies back to back,
// spans from the middle of the window on.
func (r *layerRun) train() error {
	rep, err := runTrainRep(r.b.repSeed(0), r.b.sliceDur()*slicesPerRep, r.t)
	if err != nil {
		return err
	}
	r.counts = rep.ws.counts
	var submit, traced, untraced []float64
	for _, s := range rep.studies {
		submit = append(submit, s.submitMs)
		r.m["tune.study_ms_max"] = max(r.m["tune.study_ms_max"], s.ms)
		thr := float64(s.finished) / (s.ms / 1e3)
		if s.traced {
			traced = append(traced, thr)
		} else {
			untraced = append(untraced, thr)
		}
	}
	r.m["sdk.train_submit_ms"] = median(submit)
	r.m["store.import_ms"] = rep.importMs
	if len(traced) > 0 && len(untraced) > 0 {
		r.m["trace.overhead_share"] = 1 - median(traced)/median(untraced)
	}
	r.m["proc.gc_pause_ms_total"] = rep.ws.gcPauseMs
	r.m["proc.heap_live_mb"] = rep.heapLiveMB
	r.m["proc.goroutines_peak"] = float64(rep.goroutinesPeak)
	return nil
}

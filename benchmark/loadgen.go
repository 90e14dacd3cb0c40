package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// outcome classifies one operation.
type outcome uint8

const (
	// opCorrect: answered, well-formed, and right by the workload's check.
	opCorrect outcome = iota
	// opWrong: answered and well-formed, but the label is not the truth.
	opWrong
	// opRejected: refused by backpressure (queue full, HTTP 429).
	opRejected
	// opFailed: an error, another status, or a malformed answer.
	opFailed
)

// opFunc performs operation i on behalf of one caller. Callers are numbered
// so an entry point can keep per-caller state (an HTTP connection).
type opFunc func(caller, i int) outcome

// maxSlices bounds the slices of one measured window.
const maxSlices = 16

// sliceCounts are one caller's operation counts for one slice.
type sliceCounts struct {
	attempted, answered, correct, within, rejected, failed int
}

func (c *sliceCounts) add(o sliceCounts) {
	c.attempted += o.attempted
	c.answered += o.answered
	c.correct += o.correct
	c.within += o.within
	c.rejected += o.rejected
	c.failed += o.failed
}

// recorder holds one caller's samples. Each caller records its operations in
// slice order, so a slice's latencies are a contiguous run of lat.
type recorder struct {
	lat      []uint32 // latency in ns of answered operations, clamped to ~4.29 s
	sliceEnd [maxSlices]int
	counts   [maxSlices]sliceCounts
	late     []uint32 // open loop: how late each send left, ns
	cur      int
	overflow int
	_        [64]byte // keep neighbouring callers off this one's cache line
}

func clampNs(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}

func (r *recorder) add(slice int, latNs int64, limitNs int64, o outcome) {
	for r.cur < slice {
		r.sliceEnd[r.cur] = len(r.lat)
		r.cur++
	}
	c := &r.counts[slice]
	c.attempted++
	switch o {
	case opRejected:
		c.rejected++
	case opFailed:
		c.failed++
	default:
		c.answered++
		if o == opCorrect {
			c.correct++
		}
		if latNs <= limitNs {
			c.within++
		}
		if len(r.lat) < cap(r.lat) {
			r.lat = append(r.lat, clampNs(latNs))
		} else {
			r.overflow++
		}
	}
}

func (r *recorder) finish(slices int) {
	for r.cur < slices {
		r.sliceEnd[r.cur] = len(r.lat)
		r.cur++
	}
}

// sampleArena is the latency-sample memory of the whole process, mapped
// outside the Go heap: a saturated window records a couple of million
// samples, and holding them on the heap would double the live heap the
// garbage collector paces itself by — the system under test would collect
// less often than it does in service.
type sampleArena struct {
	mem []uint32
}

const arenaSamples = 8 << 20

func newSampleArena() (*sampleArena, error) {
	b, err := syscall.Mmap(-1, 0, arenaSamples*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap sample arena: %w", err)
	}
	return &sampleArena{mem: unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), arenaSamples)}, nil
}

func (a *sampleArena) close() error {
	b := unsafe.Slice((*byte)(unsafe.Pointer(&a.mem[0])), len(a.mem)*4)
	a.mem = nil
	return syscall.Munmap(b)
}

// recorders carves the arena into n equal shares, the last eighth of each for
// lateness samples when the loop is open.
func (a *sampleArena) recorders(n int, open bool) []*recorder {
	share := len(a.mem) / n
	recs := make([]*recorder, n)
	for i := range recs {
		s := a.mem[i*share : (i+1)*share : (i+1)*share]
		r := &recorder{}
		if open {
			cut := share - share/8
			r.lat, r.late = s[:0:cut], s[cut:cut:share]
		} else {
			r.lat = s[:0]
		}
		recs[i] = r
	}
	return recs
}

// edge is the coordinator's snapshot at one slice boundary.
type edge struct {
	atNs  int64 // since the load phase began
	cpuNs int64 // process user+system time
}

func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with RUSAGE_SELF and a valid pointer
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// loadPlan shapes one load phase: a warm-up of warmOps operations flowing
// without a pause into a window of slices×sliceDur.
type loadPlan struct {
	callers  int
	warmOps  int
	slices   int
	sliceDur time.Duration
	limit    time.Duration
	// dueNs switches to an open loop: operation i is sent at dueNs[i] from
	// the start of the phase, whether or not earlier ones have completed,
	// and its latency is charged from that due time.
	dueNs []int64
	// atEdge, when set, runs on the coordinator at every slice boundary
	// (the traced run scrapes the deployment's stats there).
	atEdge func(k int)
}

// loadResult is what one load phase measured.
type loadResult struct {
	plan           loadPlan
	recs           []*recorder
	edges          []edge
	mem0, mem1     runtime.MemStats
	goroutinesPeak int
	// setupEnd is when the first measured operation could start.
	setupEnd time.Time
}

// runLoad drives op under plan and returns the raw samples. It returns once
// every caller has stopped.
func runLoad(plan loadPlan, arena *sampleArena, op opFunc) *loadResult {
	if plan.slices > maxSlices {
		panic("runLoad: too many slices")
	}
	open := plan.dueNs != nil
	res := &loadResult{plan: plan, recs: arena.recorders(plan.callers, open), edges: make([]edge, plan.slices+1)}
	windowNs := int64(plan.slices) * int64(plan.sliceDur)
	limitNs := int64(plan.limit)

	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }
	var originNs atomic.Int64 // 0 while warming up
	var wg sync.WaitGroup
	warmDone := make(chan struct{})

	if open {
		// The window opens at a due time fixed by the schedule.
		origin := plan.dueNs[plan.warmOps]
		originNs.Store(origin)
		work := make(chan int)
		for c := 0; c < plan.callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rec := res.recs[c]
				for i := range work {
					due := plan.dueNs[i]
					start := now()
					o := op(c, i)
					end := now()
					if due < origin {
						continue
					}
					if len(rec.late) < cap(rec.late) {
						rec.late = append(rec.late, clampNs(start-due))
					}
					rec.add(int((due-origin)/int64(plan.sliceDur)), end-due, limitNs, o)
				}
			}(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(work)
			for i, due := range plan.dueNs {
				if due >= origin+windowNs {
					return
				}
				if i == plan.warmOps {
					close(warmDone)
				}
				if d := due - now(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				work <- i
			}
		}()
	} else {
		var next, warmLeft atomic.Int64
		warmLeft.Store(int64(plan.warmOps))
		if plan.warmOps == 0 {
			close(warmDone)
		}
		for c := 0; c < plan.callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rec := res.recs[c]
				for {
					i := int(next.Add(1) - 1)
					start := now()
					o := op(c, i)
					end := now()
					origin := originNs.Load()
					if origin == 0 || end < origin {
						if warmLeft.Add(-1) == 0 {
							close(warmDone)
						}
						continue
					}
					k := int((end - origin) / int64(plan.sliceDur))
					if k >= plan.slices {
						return
					}
					rec.add(k, end-start, limitNs, o)
				}
			}(c)
		}
	}

	// Coordinator: snapshot the process at the window's edges.
	<-warmDone
	runtime.ReadMemStats(&res.mem0)
	origin := originNs.Load()
	if !open {
		origin = now()
		originNs.Store(origin)
	}
	res.setupEnd = base.Add(time.Duration(origin))
	for k := 0; k <= plan.slices; k++ {
		if d := origin + int64(k)*int64(plan.sliceDur) - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		res.edges[k] = edge{atNs: now(), cpuNs: cpuTimeNs()}
		if g := runtime.NumGoroutine(); g > res.goroutinesPeak {
			res.goroutinesPeak = g
		}
		if plan.atEdge != nil {
			plan.atEdge(k)
		}
	}
	runtime.ReadMemStats(&res.mem1)
	wg.Wait()
	for _, r := range res.recs {
		r.finish(plan.slices)
	}
	return res
}

// windowStats are one window's figures: one value per slice for the timed
// metrics, totals for the counted ones.
type windowStats struct {
	thr, p50, p90, cpu []float64 // per slice: answered/s, ms, ms, µs per answered op
	// p99 is the window's 99th-percentile latency in ms, over all its slices:
	// one slice of the paced workload has about a thousand samples, just too
	// few for ten beyond the percentile. 0 with p99Supported false when even
	// the window has fewer.
	p99          float64
	meanLatMs    float64 // over every answered operation of the window
	p99Supported bool
	counts       sliceCounts
	allocsPerOp  float64
	bytesPerOp   float64
	gcPauseMs    float64
	lateMs       []float64 // open loop, sorted
	overflow     int
}

func (res *loadResult) stats() (*windowStats, error) {
	plan := res.plan
	ws := &windowStats{}
	lat := make([][]float64, plan.slices)
	for k := 0; k < plan.slices; k++ {
		var sc sliceCounts
		for _, r := range res.recs {
			sc.add(r.counts[k])
			lo := 0
			if k > 0 {
				lo = r.sliceEnd[k-1]
			}
			for _, ns := range r.lat[lo:r.sliceEnd[k]] {
				lat[k] = append(lat[k], float64(ns)/1e6)
				ws.meanLatMs += float64(ns) / 1e6
			}
		}
		if sc.answered == 0 {
			return nil, fmt.Errorf("slice %d of the window answered no operation", k)
		}
		ws.counts.add(sc)
		ws.thr = append(ws.thr, float64(sc.answered)/plan.sliceDur.Seconds())
		cpu := float64(res.edges[k+1].cpuNs-res.edges[k].cpuNs) / 1e3
		ws.cpu = append(ws.cpu, cpu/float64(sc.answered))
	}
	var ok bool
	if ws.p50, ok = sliceQuantile(lat, 0.5); !ok {
		return nil, fmt.Errorf("a slice has no latency sample")
	}
	ws.p90, _ = sliceQuantile(lat, 0.9)
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	if ws.p99Supported = tailSupported(len(all), 0.99); ws.p99Supported {
		ws.p99 = percentile(sortedCopy(all), 0.99)
	}
	ops := float64(ws.counts.answered)
	ws.meanLatMs /= ops
	ws.allocsPerOp = float64(res.mem1.Mallocs-res.mem0.Mallocs) / ops
	ws.bytesPerOp = float64(res.mem1.TotalAlloc-res.mem0.TotalAlloc) / ops
	ws.gcPauseMs = float64(res.mem1.PauseTotalNs-res.mem0.PauseTotalNs) / 1e6
	for _, r := range res.recs {
		ws.overflow += r.overflow
		for _, ns := range r.late {
			ws.lateMs = append(ws.lateMs, float64(ns)/1e6)
		}
	}
	ws.lateMs = sortedCopy(ws.lateMs)
	return ws, nil
}

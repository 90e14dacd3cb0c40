// Command benchmark is the repository's end-to-end benchmark: it drives one
// workload through the public entry points (System.Query, the REST server,
// System.Train), checks every answer, and prints the metrics BENCHMARK.json
// names. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// Run shape: every invocation makes reps repetitions, each a fresh system
// whose measured window is cut into slicesPerRep slices. Timed metrics are
// the best decile over all reps×slicesPerRep slices, counted metrics the
// median over the repetitions' window totals.
const (
	reps         = 3
	slicesPerRep = 4
	// bestDecile is the quantile of the slice values a timed metric reports,
	// counted from the good end: on a shared host interference only ever
	// slows a slice down, and it comes in bursts longer than a slice, so the
	// slices' median follows the neighbours while their best decile (with 12
	// slices, about the second best) repeats. README.md has the comparison.
	bestDecile = 0.9
	// hardDeadline aborts a hung run with a goroutine dump rather than
	// leaving a process behind.
	hardDeadline = 170 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names the end-to-end metrics and their units; BENCHMARK.json
// lists exactly these (a test compares the two).
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"throughput_rps":     "1/s",
	"latency_p50_ms":     "ms",
	"slo_attainment":     "share",
	"accuracy":           "share",
	"cpu_us_per_op":      "us",
	"allocs_per_op":      "count",
	"alloc_bytes_per_op": "bytes",
}

func workloadNames() []string {
	var names []string
	for _, w := range servingWorkloads {
		names = append(names, w.name)
	}
	return append(names, trainWorkloadName)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (one of BENCHMARK.json's)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 21, "measured seconds per run, split over the repetitions")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: timed run printing the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "traced run: where to write the spans (default .bench_build/trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be in [1, 60]")
		return 2
	}

	watchdog := time.AfterFunc(hardDeadline, func() {
		fmt.Fprintln(stderr, "benchmark: hard deadline exceeded; goroutines:")
		_ = pprof.Lookup("goroutine").WriteTo(stderr, 2)
		os.Exit(3)
	})
	defer watchdog.Stop()

	if procs := runtime.NumCPU(); procs > 4 {
		runtime.GOMAXPROCS(4)
	}
	fmt.Fprintf(stdout, "host: NumCPU=%d GOMAXPROCS=%d %s kernel=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease())
	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%d trace=%d reps=%d slices=%d\n",
		*workload, *seed, *seconds, *trace, reps, reps*slicesPerRep)

	arena, err := newSampleArena()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer arena.close()

	b := &bench{seed: *seed, seconds: *seconds, arena: arena, out: stdout}
	var res *result
	if *trace == 0 {
		res, err = b.timedRun(*workload)
	} else {
		path := *traceOut
		if path == "" {
			path = ".bench_build/trace-" + *workload + ".json"
		}
		res, err = b.tracedRun(*workload, path)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// bench carries one invocation's settings.
type bench struct {
	seed    int64
	seconds int
	arena   *sampleArena
	out     io.Writer
}

// sliceDur is the length of one slice of a timed run.
func (b *bench) sliceDur() time.Duration {
	return time.Duration(b.seconds) * time.Second / (reps * slicesPerRep)
}

// repSeed derives a repetition's seed.
func (b *bench) repSeed(rep int) int64 { return b.seed*1000 + int64(rep) }

// repOutcome is one repetition's figures in the common shape.
type repOutcome struct {
	setupS   float64
	ws       *windowStats
	accuracy float64
	// info are figures printed for the reader but not part of the result:
	// latency tail, cache hit share, batch size.
	info map[string]float64
}

// servingRep runs one repetition of a serving workload: set-up (a fresh
// System, the dataset, the ensemble trained and deployed, the listener), the
// warm-up, and the measured window. Inputs are generated before the set-up
// clock starts.
func (b *bench) servingRep(w servingWorkload, rep int) (*repOutcome, error) {
	window := b.sliceDur() * slicesPerRep
	in, err := w.inputs(b.seed, rep, window)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := newDeployment(w, b.repSeed(rep), "", nil)
	if err != nil {
		return nil, err
	}
	if err := d.primeCache(in.hotSet); err != nil {
		_ = d.close()
		return nil, err
	}
	lr := runLoad(loadPlan{
		callers: d.callers(), warmOps: w.warmOps, slices: slicesPerRep, sliceDur: b.sliceDur(),
		limit: w.limit, dueNs: in.dueNs,
	}, b.arena, d.op(in, nil, nil))
	st := d.job.Stats()
	if err := d.close(); err != nil {
		return nil, err
	}
	ws, err := lr.stats()
	if err != nil {
		return nil, err
	}
	info := map[string]float64{
		"latency_p90_ms":  median(ws.p90),
		"batch_size_mean": st.BatchSizeMean, "engine_overdue_share": float64(st.Overdue) / float64(max(st.Served, 1)),
	}
	if ws.p99Supported {
		info["latency_p99_ms"] = ws.p99
	}
	if st.Cache != nil {
		info["cache_hit_share"] = st.Cache.HitRate
	}
	return &repOutcome{
		setupS:   lr.setupEnd.Sub(t0).Seconds(),
		ws:       ws,
		accuracy: float64(ws.counts.correct) / float64(ws.counts.answered),
		info:     info,
	}, nil
}

func findServing(name string) (servingWorkload, bool) {
	for _, w := range servingWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return servingWorkload{}, false
}

// timedRun measures the end-to-end metrics of one workload.
func (b *bench) timedRun(name string) (*result, error) {
	w, serving := findServing(name)
	if !serving && name != trainWorkloadName {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	band := trainAccuracyBand
	if serving {
		band = w.accuracyBand
	}
	spin0, walk0 := hostSpeed()
	var outs []*repOutcome
	for rep := 0; rep < reps; rep++ {
		var o *repOutcome
		if serving {
			var err error
			if o, err = b.servingRep(w, rep); err != nil {
				return nil, fmt.Errorf("%s repetition %d: %w", name, rep, err)
			}
		} else {
			tr, err := runTrainRep(b.repSeed(rep), b.sliceDur()*slicesPerRep, nil)
			if err != nil {
				return nil, fmt.Errorf("%s repetition %d: %w", name, rep, err)
			}
			o = &repOutcome{setupS: tr.setupS, ws: tr.ws, accuracy: tr.accuracy()}
		}
		outs = append(outs, o)
	}
	spin1, walk1 := hostSpeed()
	fmt.Fprintf(b.out, "host speed: arithmetic kernel %.1f ms before, %.1f after; memory walk %.1f ms before, %.1f after\n", spin0, spin1, walk0, walk1)
	return b.report(outs, band), nil
}

// report folds the repetitions into the end-to-end metrics, prints them with
// their spreads, and applies the checks that can fail the run.
func (b *bench) report(outs []*repOutcome, band [2]float64) *result {
	var thr, p50, cpu, firstThr, laterThr []float64
	var setup, slo, acc, allocs, bytesPer []float64
	var total sliceCounts
	var late []float64
	overflow := 0
	for _, o := range outs {
		ws := o.ws
		thr = append(thr, ws.thr...)
		p50 = append(p50, ws.p50...)
		cpu = append(cpu, ws.cpu...)
		firstThr = append(firstThr, ws.thr[0])
		laterThr = append(laterThr, ws.thr[1:]...)
		setup = append(setup, o.setupS)
		slo = append(slo, float64(ws.counts.within)/float64(ws.counts.attempted))
		acc = append(acc, o.accuracy)
		allocs = append(allocs, ws.allocsPerOp)
		bytesPer = append(bytesPer, ws.bytesPerOp)
		total.add(ws.counts)
		late = append(late, ws.lateMs...)
		overflow += ws.overflow
	}
	values := map[string][]float64{
		"setup_s": setup, "throughput_rps": thr, "latency_p50_ms": p50, "slo_attainment": slo,
		"accuracy": acc, "cpu_us_per_op": cpu, "allocs_per_op": allocs, "alloc_bytes_per_op": bytesPer,
	}
	res := &result{Correct: true, Attempted: total.attempted, Failed: total.rejected + total.failed, Metrics: map[string]metric{}}
	// The timed metrics and which end of their slice values is the good one.
	bestEnd := map[string]float64{"throughput_rps": bestDecile, "latency_p50_ms": 1 - bestDecile, "cpu_us_per_op": 1 - bestDecile}
	fmt.Fprintf(b.out, "%-20s %16s %-6s %16s %9s %3s\n", "metric", "value", "unit", "median", "rel_iqr", "n")
	for _, name := range sortedKeys(endToEndUnits) {
		v := values[name]
		value := median(v)
		if p, timed := bestEnd[name]; timed {
			value = percentile(sortedCopy(v), p)
		}
		res.Metrics[name] = metric{Value: value, Unit: endToEndUnits[name]}
		fmt.Fprintf(b.out, "%-20s %16.6f %-6s %16.6f %9.4f %3d\n", name, value, endToEndUnits[name], median(v), relIQR(v), len(v))
	}
	infos := map[string][]float64{}
	for _, o := range outs {
		for k, v := range o.info {
			infos[k] = append(infos[k], v)
		}
	}
	for _, k := range sortedKeys(infos) {
		fmt.Fprintf(b.out, "info %-22s %14.6f (median of %d repetitions)\n", k, median(infos[k]), len(infos[k]))
	}
	fmt.Fprintf(b.out, "ops: attempted=%d answered=%d correct=%d rejected=%d failed=%d dropped_samples=%d\n",
		total.attempted, total.answered, total.correct, total.rejected, total.failed, overflow)

	fail := func(format string, a ...any) {
		res.Correct = false
		fmt.Fprintf(b.out, "CHECK FAILED: "+format+"\n", a...)
	}
	if share := float64(res.Failed) / float64(total.attempted); share > 0.01 {
		fail("%.2f%% of the operations failed or were refused (limit 1%%)", 100*share)
	}
	if a := median(acc); a < band[0] || a > band[1] {
		fail("accuracy %.4f outside the sanity band [%.3f, %.3f]", a, band[0], band[1])
	}
	if len(late) > 0 {
		n := 0
		for _, ms := range late {
			if ms > 2 {
				n++
			}
		}
		share := float64(n) / float64(len(late))
		sort.Float64s(late)
		fmt.Fprintf(b.out, "open loop: %d sends, late p99 %.3f ms, %.2f%% more than 2 ms late\n", len(late), percentile(late, 0.99), 100*share)
		if share > 0.1 {
			fail("%.1f%% of the open-loop sends left more than 2 ms late (limit 10%%)", 100*share)
		}
	}
	// Warm-up check: the first slice of the windows must look like the later
	// ones, or the warm-up was too short for this machine.
	if len(laterThr) > 0 {
		later := sortedCopy(laterThr)
		lo, hi := later[0], later[len(later)-1]
		if f := median(firstThr); f < 0.9*lo || f > 1.1*hi {
			fail("first-slice throughput %.1f outside the later slices' range [%.1f, %.1f] ±10%%: warm-up too short", f, lo, hi)
		}
	}
	return res
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

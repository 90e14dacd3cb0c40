package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rafiki"
	"rafiki/internal/rest"
)

// servingWorkload describes one of the three serving workloads. Only the spec
// fields named in spec are ever set; every data-plane knob stays at the
// system's default, so the benchmark keeps compiling and running when a later
// change removes a knob.
type servingWorkload struct {
	name string
	// spec is the DeploymentSpec JSON; "models" is spliced in after training.
	spec string
	// speedup compresses the serving clock: one profiled GPU-second takes
	// 1/speedup wall seconds.
	speedup float64
	// http enters through a loopback rest.Server instead of System.Query.
	http bool
	// rate > 0 is an open loop at that many arrivals per wall second;
	// otherwise a closed loop of callers (0 = NumCPU).
	rate    float64
	callers int
	warmOps int
	// limit is the wall latency an answer must meet to count towards
	// slo_attainment.
	limit  time.Duration
	hotkey bool
	// simTruth checks labels against the class embedded in the payload (the
	// sim backend answers from it); otherwise an answer is correct when
	// re-voting its Votes reproduces its Label — and, for a repeated payload,
	// when it is the answer that payload got the first time.
	simTruth bool
	// accuracyBand is the sanity band accuracy must fall in.
	accuracyBand [2]float64
}

var ensembleModels = []string{"inception_v3", "inception_v4", "inception_resnet_v2"}

var servingWorkloads = []servingWorkload{
	{
		name:    "query_sim_paced",
		spec:    `{"policy":"greedy","slo_seconds":0.25,"queue_cap":4096,"backend":{"type":"sim"},"cache":{"enabled":false}}`,
		speedup: 10, rate: 600, callers: 512, warmOps: 600,
		limit: 25 * time.Millisecond, simTruth: true, accuracyBand: [2]float64{0.80, 0.995},
	},
	{
		name:    "query_nn_saturated",
		spec:    `{"policy":"greedy","slo_seconds":0.25,"queue_cap":4096,"backend":{"type":"nn"},"cache":{"enabled":false}}`,
		speedup: 1000, callers: 32, warmOps: 200000,
		limit: 5 * time.Millisecond, accuracyBand: [2]float64{0.999, 1},
	},
	{
		name:    "http_hotkey",
		spec:    `{"policy":"greedy","slo_seconds":0.25,"queue_cap":4096,"backend":{"type":"sim"},"cache":{"enabled":true}}`,
		speedup: 100, http: true, warmOps: 15000, hotkey: true,
		limit: 5 * time.Millisecond, accuracyBand: [2]float64{0.999, 1},
	},
}

// stepTimes are the durations of a deployment's set-up steps, reported as
// per-layer metrics by the traced run.
type stepTimes struct {
	importMs, trainSubmitMs, trainMs, deployMs float64
}

// deployment is one repetition's system under test: a fresh System with the
// ensemble trained and deployed, and for the HTTP entry a loopback server
// with one keep-alive client per caller.
type deployment struct {
	w       servingWorkload
	sys     *rafiki.System
	job     *rafiki.InferenceJob
	acc     map[string]float64 // deployed model → validation accuracy
	classes map[string]int32   // label → 1-based index
	steps   stepTimes
	// firstLabel[k] is the label index hot-set payload k was first answered
	// with, 0 until then: a cache must keep serving that answer.
	firstLabel [hotkeyKeys]atomic.Int32

	srv      *http.Server
	srvDone  chan error
	queryURL string
	statsURL string
	clients  []*http.Client
}

func since(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// wrapHandler lets the traced run put a recording middleware in front of the
// REST server; nil serves it directly.
type wrapHandler func(http.Handler) http.Handler

// newDeployment builds the system under test. specOverride, when non-empty,
// replaces the workload's spec (the traced run's ladder and backend tap
// deploy variants of it).
func newDeployment(w servingWorkload, seed int64, specOverride string, wrap wrapHandler) (d *deployment, err error) {
	d = &deployment{w: w, acc: map[string]float64{}, classes: map[string]int32{}}
	defer func() {
		if err != nil {
			_ = d.close()
		}
	}()
	d.sys, err = rafiki.New(rafiki.Options{Seed: seed, ServeSpeedup: w.speedup, Workers: 2})
	if err != nil {
		return d, err
	}
	t := time.Now()
	data, err := d.sys.ImportImages("food", foodFolders())
	if err != nil {
		return d, err
	}
	d.steps.importMs = since(t)
	for i, c := range data.Classes {
		d.classes[c] = int32(i + 1)
	}
	t = time.Now()
	tj, err := d.sys.Train(rafiki.TrainConfig{
		Name: "ensemble", Data: data.Name, Task: rafiki.ImageClassification,
		Hyper:  rafiki.HyperConf{MaxTrials: 20, CoStudy: true},
		Models: ensembleModels,
	})
	if err != nil {
		return d, err
	}
	d.steps.trainSubmitMs = since(t)
	if err := tj.Wait(); err != nil {
		return d, err
	}
	d.steps.trainMs = since(t)
	models, err := d.sys.GetModels(tj.ID)
	if err != nil {
		return d, err
	}
	for _, m := range models {
		d.acc[m.Model] = m.Accuracy
	}
	mj, err := json.Marshal(models)
	if err != nil {
		return d, err
	}
	specJSON := w.spec
	if specOverride != "" {
		specJSON = specOverride
	}
	var spec rafiki.DeploymentSpec
	if err := json.Unmarshal([]byte(`{"models":`+string(mj)+","+strings.TrimPrefix(specJSON, "{")), &spec); err != nil {
		return d, fmt.Errorf("deployment spec: %w", err)
	}
	t = time.Now()
	if d.job, err = d.sys.Deploy(spec); err != nil {
		return d, err
	}
	d.steps.deployMs = since(t)
	if !w.http {
		return d, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	var h http.Handler = rest.NewServer(d.sys)
	if wrap != nil {
		h = wrap(h)
	}
	d.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.srvDone = make(chan error, 1)
	go func() { d.srvDone <- d.srv.Serve(ln) }()
	root := "http://" + ln.Addr().String()
	d.queryURL = root + "/api/v1/query/" + d.job.ID
	d.statsURL = root + "/api/v1/inference/" + d.job.ID + "/stats"
	for i := 0; i < d.callers(); i++ {
		d.clients = append(d.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   10 * time.Second,
		})
	}
	return d, nil
}

// callers is the closed-loop caller count (or the open loop's worker pool).
// The HTTP entry uses one connection per CPU.
func (d *deployment) callers() int {
	if d.w.callers > 0 {
		return d.w.callers
	}
	return runtime.NumCPU()
}

// close stops everything the deployment started and waits for it. A second
// call is a no-op, so error paths can defer it.
func (d *deployment) close() error {
	var first error
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := d.srv.Shutdown(ctx); err != nil {
			first = err
		}
		cancel()
		<-d.srvDone // Serve has returned: the listener is closed
		d.srv = nil
	}
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	if d.sys != nil {
		if err := d.sys.Close(); err != nil && first == nil {
			first = err
		}
		d.sys = nil
	}
	return first
}

// revote recomputes Section 5.2's vote from a result's per-model votes:
// plurality, ties broken by the most accurate model among the tied labels.
func revote(votes map[string]string, acc map[string]float64) string {
	counts := make(map[string]int, len(votes))
	top := 0
	for _, label := range votes {
		counts[label]++
		if counts[label] > top {
			top = counts[label]
		}
	}
	best, bestAcc := "", -1.0
	for model, label := range votes {
		if counts[label] == top && acc[model] > bestAcc {
			best, bestAcc = label, acc[model]
		}
	}
	return best
}

// classify checks one answer. A malformed answer — unknown label, votes that
// do not name exactly the deployed ensemble (the greedy policy serves every
// batch with all models), or a label the votes do not produce — is a failure.
func (d *deployment) classify(res *rafiki.QueryResult, in *queryInputs, j int) outcome {
	if res == nil || d.classes[res.Label] == 0 || len(res.Votes) != len(d.acc) {
		return opFailed
	}
	for model, label := range res.Votes {
		if _, ok := d.acc[model]; !ok || d.classes[label] == 0 {
			return opFailed
		}
	}
	if in.key != nil && in.key[j] >= 0 {
		first := &d.firstLabel[in.key[j]]
		if got := d.classes[res.Label]; !first.CompareAndSwap(0, got) && first.Load() != got {
			return opWrong
		}
	}
	if revote(res.Votes, d.acc) != res.Label {
		if d.w.simTruth {
			return opFailed
		}
		return opWrong
	}
	if d.w.simTruth && res.Label != in.truth[j] {
		return opWrong
	}
	return opCorrect
}

// queryOp enters through System.Query. A traced operation records the call
// and the answer check as children of one root span.
func (d *deployment) queryOp(in *queryInputs, tr *opTrace) opFunc {
	return func(_, i int) outcome {
		j := i % len(in.payloads)
		if !tr.sampled(i) {
			res, err := d.sys.Query(d.job.ID, in.payloads[j])
			if err != nil {
				return opFailed
			}
			return d.classify(res, in, j)
		}
		root := tr.t.begin("op", 0, uint64(i))
		defer tr.t.end(root)
		call := tr.t.begin("sdk.query", root, uint64(i))
		res, err := d.sys.Query(d.job.ID, in.payloads[j])
		tr.t.end(call)
		if err != nil {
			return opFailed
		}
		check := tr.t.begin("check", root, uint64(i))
		defer tr.t.end(check)
		return d.classify(res, in, j)
	}
}

// httpStatus counts one caller's REST answers by class.
type httpStatus struct {
	tooMany, serverErr, other int
}

// httpOp enters through the loopback REST server, one keep-alive connection
// per caller. statuses, when non-nil, has one counter set per caller. A
// traced operation sends its span in the trace headers, so the server-side
// rest.handle span hangs under the client's round trip.
func (d *deployment) httpOp(in *queryInputs, statuses []httpStatus, tr *opTrace) opFunc {
	return func(caller, i int) outcome {
		j := i % len(in.payloads)
		req, err := http.NewRequest(http.MethodPost, d.queryURL, bytes.NewReader(in.bodies[j]))
		if err != nil {
			return opFailed
		}
		req.Header.Set("Content-Type", "application/json")
		var root, call uint64
		if tr.sampled(i) {
			root = tr.t.begin("op", 0, uint64(i))
			defer tr.t.end(root)
			call = tr.t.begin("http.roundtrip", root, uint64(i))
			req.Header.Set(headerSpan, strconv.FormatUint(call, 10))
			req.Header.Set(headerReq, strconv.Itoa(i))
		}
		resp, err := d.clients[caller].Do(req)
		if err != nil {
			tr.endSpan(call)
			return opFailed
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // the body is fully read; nothing left to fail
		tr.endSpan(call)
		st := &httpStatus{}
		if statuses != nil {
			st = &statuses[caller]
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			st.tooMany++
			return opRejected
		case resp.StatusCode >= 500:
			st.serverErr++
			return opFailed
		case resp.StatusCode != http.StatusOK || err != nil:
			st.other++
			return opFailed
		}
		if root != 0 {
			check := tr.t.begin("check", root, uint64(i))
			defer tr.t.end(check)
		}
		var res rafiki.QueryResult
		if err := json.Unmarshal(body, &res); err != nil {
			return opFailed
		}
		return d.classify(&res, in, j)
	}
}

// inputs generates a repetition's inputs from the seed.
func (w servingWorkload) inputs(seed int64, rep int, window time.Duration) (*queryInputs, error) {
	switch {
	case w.hotkey:
		return genHotkey(seed, rep, 1<<18)
	case w.rate > 0:
		due := genPoisson(seed, rep, w.rate, w.warmOps, window.Seconds())
		in := genDistinct(seed, rep, len(due))
		in.dueNs = due
		return in, nil
	default:
		return genDistinct(seed, rep, 1<<16), nil
	}
}

// primeCache queries every hot-set payload until it is cached. Admission
// needs a decayed touch count of 2, which the second touch just misses (the
// first has decayed a little by then), so the third touch stores the answer
// and the window starts with the whole hot set resident.
func (d *deployment) primeCache(hotSet [][]byte) error {
	for pass := 0; pass < 3; pass++ {
		errs := make(chan error, len(hotSet))
		sem := make(chan struct{}, 64)
		for _, p := range hotSet {
			sem <- struct{}{}
			go func(p []byte) {
				_, err := d.sys.Query(d.job.ID, p)
				<-sem
				errs <- err
			}(p)
		}
		for range hotSet {
			if err := <-errs; err != nil {
				return fmt.Errorf("prime cache: %w", err)
			}
		}
	}
	return nil
}

// op picks the workload's entry point.
func (d *deployment) op(in *queryInputs, statuses []httpStatus, tr *opTrace) opFunc {
	if d.w.http {
		return d.httpOp(in, statuses, tr)
	}
	return d.queryOp(in, tr)
}

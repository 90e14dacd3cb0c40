package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rafiki"
)

func newTestServer(t *testing.T) (*Client, *httptest.Server) {
	t.Helper()
	// Speedup 50 keeps serving fast while leaving models busy for
	// milliseconds of wall time, so concurrent test queries reliably
	// overlap into shared batches even on a loaded machine.
	sys, err := rafiki.New(rafiki.Options{Seed: 7, Workers: 2, NodeCapacity: 16, ServeSpeedup: 50})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(sys))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), ts
}

func TestHealthAndTasks(t *testing.T) {
	c, ts := newTestServer(t)
	resp, err := c.HTTP.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	tasks, err := c.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks["ImageClassification"]) == 0 {
		t.Fatalf("tasks = %v", tasks)
	}
}

// TestFullWorkflowOverREST drives the complete Figure 2 + Section 8 flow
// through HTTP: import → train → models → deploy → query.
func TestFullWorkflowOverREST(t *testing.T) {
	c, _ := newTestServer(t)

	d, err := c.ImportImages("food", map[string]int{"pizza": 50, "ramen": 50, "salad": 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Classes) != 3 {
		t.Fatalf("classes = %v", d.Classes)
	}

	jobID, err := c.Train(TrainRequest{
		Name:        "train",
		Data:        "food",
		Task:        "ImageClassification",
		InputShape:  []int{3, 256, 256},
		OutputShape: []int{3},
		Hyper:       rafiki.HyperConf{MaxTrials: 8, CoStudy: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitTrain(context.Background(), jobID, 50*time.Millisecond, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Finished == 0 {
		t.Fatalf("status = %+v", st)
	}

	models, err := c.GetModels(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatal("no models")
	}

	infID, err := c.Deploy(InferenceRequest{TrainJobID: jobID})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(infID, "my_pizza_photo.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if res.Label == "" || res.Confidence <= 0 {
		t.Fatalf("query result = %+v", res)
	}

	st2, err := c.InferenceStats(infID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Served != 1 || st2.Queries != 1 || st2.Dispatches != 1 {
		t.Fatalf("stats after one query = %+v", st2)
	}
	if st2.P50Latency <= 0 {
		t.Fatalf("stats missing latency: %+v", st2)
	}
}

// TestConcurrentQueriesAreBatched hammers one deployment with parallel HTTP
// queries: every caller gets its prediction, and the stats endpoint shows
// the scheduler grouping them into shared batches (dispatches < served).
func TestConcurrentQueriesAreBatched(t *testing.T) {
	c, _ := newTestServer(t)
	if _, err := c.ImportImages("food", map[string]int{"pizza": 40, "ramen": 40}); err != nil {
		t.Fatal(err)
	}
	jobID, err := c.Train(TrainRequest{
		Name: "t", Data: "food", Task: "ImageClassification",
		Hyper: rafiki.HyperConf{MaxTrials: 6, CoStudy: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitTrain(context.Background(), jobID, 50*time.Millisecond, 200); err != nil {
		t.Fatal(err)
	}
	infID, err := c.Deploy(InferenceRequest{TrainJobID: jobID})
	if err != nil {
		t.Fatal(err)
	}

	const n = 48
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Query(infID, fmt.Sprintf("photo_%d_of_pizza.jpg", i))
			if err != nil {
				errs <- err
				return
			}
			if res.Label == "" {
				errs <- fmt.Errorf("query %d: empty label", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, err := c.InferenceStats(infID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Served != n || st.Queries != n {
		t.Fatalf("served = %d queries = %d, want %d", st.Served, st.Queries, n)
	}
	if st.Dispatches >= n {
		t.Fatalf("dispatches = %d for %d queries: no batching happened", st.Dispatches, n)
	}
	// Unknown job on the stats route.
	if _, err := c.InferenceStats("ghost"); err == nil {
		t.Fatal("stats for unknown job should error")
	}
}

func TestRESTErrors(t *testing.T) {
	c, ts := newTestServer(t)

	// Unknown training job.
	if _, err := c.TrainStatus("ghost"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("err = %v", err)
	}
	// Bad JSON body.
	resp, err := c.HTTP.Post(ts.URL+"/api/v1/train", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad body status = %d", resp.StatusCode)
	}
	// Train with unknown dataset.
	if _, err := c.Train(TrainRequest{Name: "x", Data: "ghost", Task: "ImageClassification"}); err == nil {
		t.Fatal("unknown dataset should error")
	}
	// Inference for unknown job.
	if _, err := c.Deploy(InferenceRequest{TrainJobID: "ghost"}); err == nil {
		t.Fatal("unknown training job should error")
	}
	// Query with empty payload.
	if _, err := c.Query("ghost", ""); err == nil {
		t.Fatal("empty payload should error")
	}
	// Import with no folders.
	if _, err := c.ImportImages("bad", nil); err == nil {
		t.Fatal("empty import should error")
	}
}

func TestModelsBeforeDoneConflict(t *testing.T) {
	c, _ := newTestServer(t)
	if _, err := c.ImportImages("d", map[string]int{"a": 40, "b": 40}); err != nil {
		t.Fatal(err)
	}
	jobID, err := c.Train(TrainRequest{
		Name: "big", Data: "d", Task: "ImageClassification",
		Hyper: rafiki.HyperConf{MaxTrials: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Immediately asking for models either conflicts (still running) or the
	// job was very fast; tolerate both but require eventual success.
	if _, err := c.GetModels(jobID); err != nil && !strings.Contains(err.Error(), "still running") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := c.WaitTrain(context.Background(), jobID, 50*time.Millisecond, 600); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetModels(jobID); err != nil {
		t.Fatal(err)
	}
}

// trainAndDeploy is the shared fixture for the replica/backpressure tests:
// import + train once, deploy with the given request knobs.
func trainAndDeploy(t *testing.T, c *Client, req InferenceRequest) string {
	t.Helper()
	req.TrainJobID = trainFood(t, c)
	infID, err := c.Deploy(req)
	if err != nil {
		t.Fatal(err)
	}
	return infID
}

// trainFood imports the food dataset, trains on it and returns the finished
// training job's ID.
func trainFood(t *testing.T, c *Client) string {
	t.Helper()
	if _, err := c.ImportImages("food", map[string]int{"pizza": 40, "ramen": 40}); err != nil {
		t.Fatal(err)
	}
	jobID, err := c.Train(TrainRequest{
		Name: "t", Data: "food", Task: "ImageClassification",
		Hyper: rafiki.HyperConf{MaxTrials: 6, CoStudy: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitTrain(context.Background(), jobID, 50*time.Millisecond, 200); err != nil {
		t.Fatal(err)
	}
	return jobID
}

// TestQueueFullAnswers429WithRetryAfter saturates a 2-slot queue with a
// concurrent burst (run under -race): rejected queries must get 429 + a
// Retry-After hint, not 503, while accepted ones still get predictions.
func TestQueueFullAnswers429WithRetryAfter(t *testing.T) {
	c, ts := newTestServer(t)
	infID := trainAndDeploy(t, c, InferenceRequest{QueueCap: 2})

	const n = 30
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.HTTP.Post(ts.URL+"/api/v1/query/"+infID, "application/json",
				strings.NewReader(fmt.Sprintf(`{"img":"burst_%d_pizza.jpg"}`, i)))
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	ok, backpressure := 0, 0
	for i, code := range codes {
		switch code {
		case 200:
			ok++
		case 429:
			backpressure++
			if secs, err := strconv.Atoi(retryAfter[i]); err != nil || secs < 1 {
				t.Fatalf("429 response %d Retry-After = %q, want integer seconds >= 1", i, retryAfter[i])
			}
		default:
			t.Fatalf("query %d status = %d, want 200 or 429", i, code)
		}
	}
	if backpressure == 0 {
		t.Fatalf("no 429s from a %d-burst against a 2-slot queue (ok=%d)", n, ok)
	}
	if ok == 0 {
		t.Fatal("every query was rejected; the queue never drained")
	}
	// The stats endpoint exposes the drop count and replica layout.
	st, err := c.InferenceStats(infID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != backpressure {
		t.Fatalf("stats dropped = %d, want %d", st.Dropped, backpressure)
	}
	if len(st.Replicas) == 0 {
		t.Fatalf("stats missing replicas: %+v", st)
	}
}

// TestScaleAndStopEndpoints exercises the replica-scaling and teardown
// routes end to end.
func TestScaleAndStopEndpoints(t *testing.T) {
	c, ts := newTestServer(t)
	infID := trainAndDeploy(t, c, InferenceRequest{Replicas: Bounds(2, 0)})

	counts, err := c.Scale(infID, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 {
		t.Fatalf("scale returned no replica counts")
	}
	for m, n := range counts {
		if n != 3 {
			t.Fatalf("model %s = %d replicas after scale, want 3", m, n)
		}
	}
	if _, err := c.Query(infID, "post_scale_ramen.jpg"); err != nil {
		t.Fatal(err)
	}
	// Scale validation: unknown job is 404, bad count is 400.
	if _, err := c.Scale("ghost", "", 2); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("scale unknown job err = %v", err)
	}
	if _, err := c.Scale(infID, "", 0); err == nil {
		t.Fatal("scale to 0 should error")
	}

	// Teardown: 204, then every later use of the ID is 404.
	if err := c.StopInference(infID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(infID, "late.jpg"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("query after stop err = %v, want unknown job", err)
	}
	if _, err := c.InferenceStats(infID); err == nil {
		t.Fatal("stats after stop should 404")
	}
	resp, err := c.HTTP.Do(mustReq(t, "DELETE", ts.URL+"/api/v1/inference/"+infID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("double delete status = %d, want 404", resp.StatusCode)
	}
}

func mustReq(t *testing.T, method, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestListEndpoints: every resource the API creates can be enumerated —
// datasets, training jobs, and deployments.
func TestListEndpoints(t *testing.T) {
	c, _ := newTestServer(t)

	// Empty listings are empty JSON arrays, not errors.
	if ds, err := c.ListDatasets(); err != nil || len(ds) != 0 {
		t.Fatalf("empty datasets = %v, %v", ds, err)
	}
	if tj, err := c.ListTrainJobs(); err != nil || len(tj) != 0 {
		t.Fatalf("empty train jobs = %v, %v", tj, err)
	}
	if inf, err := c.ListInference(); err != nil || len(inf) != 0 {
		t.Fatalf("empty inference = %v, %v", inf, err)
	}

	infID := trainAndDeploy(t, c, InferenceRequest{})

	ds, err := c.ListDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Name != "food" {
		t.Fatalf("datasets = %+v", ds)
	}
	tj, err := c.ListTrainJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(tj) != 1 || !tj[0].Done || tj[0].Finished == 0 {
		t.Fatalf("train jobs = %+v", tj)
	}
	list, err := c.ListInference()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != infID {
		t.Fatalf("inference list = %+v", list)
	}
	if list[0].Spec.Policy != "greedy" || len(list[0].Status.Replicas) == 0 {
		t.Fatalf("listed deployment = %+v", list[0])
	}
	// Deleting the deployment empties the listing again.
	if err := c.StopInference(infID); err != nil {
		t.Fatal(err)
	}
	if list, err = c.ListInference(); err != nil || len(list) != 0 {
		t.Fatalf("inference list after delete = %v, %v", list, err)
	}
}

// TestRESTErrorPaths is the table-driven error contract: unknown routes and
// ids are 404, wrong methods on known routes are 405, malformed JSON bodies
// are 400, and a saturated queue answers 429 with a well-formed Retry-After.
func TestRESTErrorPaths(t *testing.T) {
	c, ts := newTestServer(t)
	infID := trainAndDeploy(t, c, InferenceRequest{QueueCap: 2})

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"unknown route", "GET", "/api/v1/nope", "", 404},
		{"unknown route root", "GET", "/", "", 404},
		{"unknown train id", "GET", "/api/v1/train/ghost", "", 404},
		{"unknown inference id", "GET", "/api/v1/inference/ghost", "", 404},
		{"unknown stats id", "GET", "/api/v1/inference/ghost/stats", "", 404},
		{"reconcile unknown id", "PUT", "/api/v1/inference/ghost", "{}", 404},
		{"delete unknown id", "DELETE", "/api/v1/inference/ghost", "", 404},
		{"query unknown id", "POST", "/api/v1/query/ghost", `{"img":"x.jpg"}`, 404},
		{"tasks wrong method", "DELETE", "/api/v1/tasks", "", 405},
		{"datasets wrong method", "PUT", "/api/v1/datasets", "{}", 405},
		{"train wrong method", "DELETE", "/api/v1/train", "", 405},
		{"query wrong method", "GET", "/api/v1/query/" + infID, "", 405},
		{"inference wrong method", "DELETE", "/api/v1/inference", "", 405},
		{"scale wrong method", "GET", "/api/v1/inference/" + infID + "/scale", "", 405},
		{"malformed deploy body", "POST", "/api/v1/inference", "{", 400},
		{"malformed reconcile body", "PUT", "/api/v1/inference/" + infID, "{", 400},
		{"malformed train body", "POST", "/api/v1/train", "{", 400},
		{"malformed import body", "POST", "/api/v1/datasets", "{", 400},
		{"malformed query body", "POST", "/api/v1/query/" + infID, "{", 400},
		{"malformed scale body", "POST", "/api/v1/inference/" + infID + "/scale", "{", 400},
		{"unknown train job id", "POST", "/api/v1/inference", `{"train_job_id":"x","policy":"warp"}`, 404},
		{"reconcile invalid policy", "PUT", "/api/v1/inference/" + infID, `{"policy":"warp"}`, 400},
		{"reconcile inverted bounds", "PUT", "/api/v1/inference/" + infID, `{"replicas":{"min":5,"max":2}}`, 400},
		{"reconcile ghost id bad train job", "PUT", "/api/v1/inference/ghost", `{"train_job_id":"also-ghost"}`, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			if tc.body != "" {
				rd = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.HTTP.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
		})
	}

	// 429 shape: saturate the 2-slot queue; every rejection must carry an
	// integer Retry-After >= 1 (the drain-rate-derived backpressure hint).
	t.Run("queue full retry-after shape", func(t *testing.T) {
		const n = 30
		codes := make([]int, n)
		retryAfter := make([]string, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := c.HTTP.Post(ts.URL+"/api/v1/query/"+infID, "application/json",
					strings.NewReader(fmt.Sprintf(`{"img":"table_burst_%d.jpg"}`, i)))
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				resp.Body.Close()
				codes[i] = resp.StatusCode
				retryAfter[i] = resp.Header.Get("Retry-After")
			}(i)
		}
		wg.Wait()
		saw429 := false
		for i, code := range codes {
			if code != 429 {
				continue
			}
			saw429 = true
			if secs, err := strconv.Atoi(retryAfter[i]); err != nil || secs < 1 {
				t.Fatalf("429 Retry-After = %q, want integer seconds >= 1", retryAfter[i])
			}
		}
		if !saw429 {
			t.Fatalf("no 429s from a %d-burst against a 2-slot queue", n)
		}
	})
}

// TestReconcileDeploymentOverREST is the PUT acceptance test: a live
// deployment gets a policy swap plus a replica-bound change while queries
// are in flight; the in-flight queries must complete and the described
// resource must reflect the new spec.
func TestReconcileDeploymentOverREST(t *testing.T) {
	c, ts := newTestServer(t)
	infID := trainAndDeploy(t, c, InferenceRequest{})

	desc, err := c.DescribeInference(infID)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Spec.Policy != "greedy" || desc.Status.Policy != "greedy-sync" {
		t.Fatalf("initial description = %+v", desc)
	}

	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Query(infID, fmt.Sprintf("reconcile_%d_pizza.jpg", i))
			if err != nil {
				errs <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			if res.Label == "" {
				errs <- fmt.Errorf("query %d: empty label", i)
			}
		}(i)
	}
	put, err := c.Reconcile(infID, InferenceRequest{
		Policy:   "rl",
		Replicas: Bounds(2, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if put.Spec.Policy != "rl" || put.Spec.Replicas.Min != 2 || put.Spec.Replicas.Max != 4 {
		t.Fatalf("PUT response spec = %+v", put.Spec)
	}

	// GET reflects the reconciled spec and the scaled-up pools.
	desc, err = c.DescribeInference(infID)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Spec.Policy != "rl" || desc.Spec.Replicas.Min != 2 || desc.Spec.Replicas.Max != 4 {
		t.Fatalf("described spec after PUT = %+v", desc.Spec)
	}
	if desc.Status.Policy != "rl" {
		t.Fatalf("live policy after PUT = %q", desc.Status.Policy)
	}
	for m, nrep := range desc.Status.Replicas {
		if nrep != 2 {
			t.Fatalf("model %s = %d replicas, want 2 after bounds {2,4}", m, nrep)
		}
	}
	// Queries keep flowing through the swapped-in policy, and its online
	// step counter is visible over the API.
	if _, err := c.Query(infID, "post_put_ramen.jpg"); err != nil {
		t.Fatal(err)
	}
	desc, err = c.DescribeInference(infID)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Status.RLSteps == 0 {
		t.Fatal("rl_steps = 0 after serving through the RL policy")
	}

	// The GET'd spec round-trips: PUT the described resource's spec back
	// verbatim (object replicas form) and nothing changes.
	raw, err := json.Marshal(desc.Spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("PUT", ts.URL+"/api/v1/inference/"+infID, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var echoed rafiki.InferenceDescription
	if err := json.NewDecoder(resp.Body).Decode(&echoed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("PUT of GET'd spec = %d, want 200", resp.StatusCode)
	}
	if echoed.Spec.Policy != desc.Spec.Policy || echoed.Spec.SLO != desc.Spec.SLO ||
		echoed.Spec.QueueCap != desc.Spec.QueueCap || echoed.Spec.Replicas != desc.Spec.Replicas ||
		echoed.Spec.Autoscale != desc.Spec.Autoscale {
		t.Fatalf("round-trip changed the spec: %+v vs %+v", echoed.Spec, desc.Spec)
	}

	// The legacy bare-integer replicas form still works on the wire.
	req, err = http.NewRequest("PUT", ts.URL+"/api/v1/inference/"+infID,
		strings.NewReader(`{"policy":"rl","replicas":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = c.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("legacy integer replicas PUT = %d, want 200", resp.StatusCode)
	}
	desc, err = c.DescribeInference(infID)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Spec.Replicas.Min != 3 {
		t.Fatalf("legacy replicas:3 gave bounds %+v, want Min 3", desc.Spec.Replicas)
	}
}

// TestShardedAsyncDeploymentRoundTrip covers the async policy over the wire:
// POST a deploy body with policy "async" that still carries the retired
// queue keys "shards" and "dispatch_groups" (ignored like any unknown key:
// the deployment serves from one FIFO), watch the status and stats, then PUT
// a live policy swap, all while queries keep flowing.
func TestShardedAsyncDeploymentRoundTrip(t *testing.T) {
	c, _ := newTestServer(t)
	body := fmt.Sprintf(`{"train_job_id":%q,"policy":"async","shards":8,"dispatch_groups":4}`, trainFood(t, c))
	var created rafiki.InferenceDescription
	if err := c.do(http.MethodPost, "/api/v1/inference", json.RawMessage(body), &created); err != nil {
		t.Fatal(err)
	}
	infID := created.ID

	desc, err := c.DescribeInference(infID)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Spec.Policy != rafiki.PolicyAsync {
		t.Fatalf("deployed spec = %+v, want policy async", desc.Spec)
	}
	if desc.Status.Policy != "greedy-async" {
		t.Fatalf("live policy = %q, want greedy-async", desc.Status.Policy)
	}
	raw, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"shards"`, `"dispatch_groups"`, `"shard_queue_lens"`, `"stolen"`} {
		if bytes.Contains(raw, []byte(key)) {
			t.Fatalf("description still carries %s: %s", key, raw)
		}
	}

	// Queries flow through the async scheduler (one model per batch).
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Query(infID, fmt.Sprintf("async_%d_pizza.jpg", i))
			if err != nil {
				errs <- err
				return
			}
			if len(res.Votes) != 1 {
				errs <- fmt.Errorf("query %d served by %d models, want 1 (async = no ensemble)", i, len(res.Votes))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The stats endpoint exposes the drained queue and per-model backlogs.
	st, err := c.InferenceStats(infID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Served != n || st.QueueLen != 0 {
		t.Fatalf("stats = served %d queue_len %d, want %d/0", st.Served, st.QueueLen, n)
	}
	if len(st.ModelBacklogs) == 0 {
		t.Fatalf("stats missing per-model backlogs: %+v", st)
	}
	// The batch-size distribution is observable over the wire: n served
	// queries across some dispatches give a positive mean and a histogram
	// that accounts for every request.
	if st.BatchSizeMean <= 0 || len(st.BatchSizeHist) == 0 {
		t.Fatalf("stats batch mean %v hist %v, want both populated", st.BatchSizeMean, st.BatchSizeHist)
	}
	histTotal := 0
	for b, cnt := range st.BatchSizeHist {
		histTotal += b * cnt
	}
	if histTotal != st.Served {
		t.Fatalf("batch histogram %v covers %d requests, want %d", st.BatchSizeHist, histTotal, st.Served)
	}

	// PUT a live policy swap back to the sync ensemble.
	desc, err = c.Reconcile(infID, InferenceRequest{Policy: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if desc.Spec.Policy != rafiki.PolicyGreedy || desc.Status.Policy != "greedy-sync" {
		t.Fatalf("reconciled = spec %+v status %+v, want greedy", desc.Spec, desc.Status)
	}
	res, err := c.Query(infID, "post_swap_ramen.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Votes) < 2 {
		t.Fatalf("post-swap query served by %d models, want the ensemble", len(res.Votes))
	}

	// An unknown policy name still 400s with the async value listed.
	if _, err := c.Reconcile(infID, InferenceRequest{Policy: "warp"}); err == nil || !strings.Contains(err.Error(), "async") {
		t.Fatalf("unknown policy err = %v, want the policy menu", err)
	}
}

// TestCacheBlockOverREST round-trips the "cache" spec block: deploy with it,
// read the defaulted spec back, observe hit counters in both the describe and
// stats endpoints, retune it live, and see a policy-swap PUT invalidate.
func TestCacheBlockOverREST(t *testing.T) {
	c, _ := newTestServer(t)
	infID := trainAndDeploy(t, c, InferenceRequest{
		Cache: &rafiki.CacheSpec{Enabled: true, AdmitThreshold: 1, TTLSeconds: 120},
	})

	desc, err := c.DescribeInference(infID)
	if err != nil {
		t.Fatal(err)
	}
	cs := desc.Spec.Cache
	if cs == nil || !cs.Enabled {
		t.Fatalf("described spec lost the cache block: %+v", desc.Spec)
	}
	if cs.TTLSeconds != 120 || cs.AdmitThreshold != 1 || cs.Capacity == 0 || cs.HalfLifeSeconds == 0 {
		t.Fatalf("cache block not defaulted on the wire: %+v", cs)
	}

	// Two identical queries: with threshold 1 the first is cached, the
	// second is a hit.
	if _, err := c.Query(infID, "rest_cache_pizza.jpg"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(infID, "rest_cache_pizza.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if res.Label == "" {
		t.Fatal("cached query lost its label on the wire")
	}
	st, err := c.InferenceStats(infID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil || st.Cache.Hits != 1 || st.Cache.HitRate == 0 {
		t.Fatalf("stats endpoint cache block = %+v, want one hit", st.Cache)
	}
	desc, err = c.DescribeInference(infID)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Status.Cache == nil || desc.Status.Cache.Hits != 1 {
		t.Fatalf("describe status cache block = %+v, want one hit", desc.Status.Cache)
	}

	// A PUT that swaps the policy must invalidate: the epoch moves and the
	// next identical query recomputes instead of hitting.
	if _, err := c.Reconcile(infID, InferenceRequest{
		Policy: "async",
		Cache:  &rafiki.CacheSpec{Enabled: true, AdmitThreshold: 1, TTLSeconds: 120},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(infID, "rest_cache_pizza.jpg"); err != nil {
		t.Fatal(err)
	}
	st, err = c.InferenceStats(infID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Invalidations == 0 || st.Cache.StaleEvictions == 0 {
		t.Fatalf("post-PUT cache stats = %+v, want invalidation + staleness eviction", st.Cache)
	}
	if st.Cache.Hits != 1 {
		t.Fatalf("post-PUT hits = %d, want still 1 (zero stale hits)", st.Cache.Hits)
	}

	// Disabling the block drops the counters from both endpoints.
	if _, err := c.Reconcile(infID, InferenceRequest{Policy: "async"}); err != nil {
		t.Fatal(err)
	}
	st, err = c.InferenceStats(infID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache != nil {
		t.Fatalf("disabled cache still reports stats: %+v", st.Cache)
	}

	// A bad cache block is a 400 at validation, touching nothing.
	if _, err := c.Reconcile(infID, InferenceRequest{
		Cache: &rafiki.CacheSpec{Enabled: true, TTLSeconds: -1},
	}); err == nil || !strings.Contains(err.Error(), "cache TTL") {
		t.Fatalf("bad cache block err = %v", err)
	}
}

// TestPprofGatedByOption: the profiling endpoints 404 on a default server and
// serve only when the operator opted in with WithPprof.
func TestPprofGatedByOption(t *testing.T) {
	sys, err := rafiki.New(rafiki.Options{Seed: 7, Workers: 1, NodeCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	off := httptest.NewServer(NewServer(sys))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("default server pprof status = %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(NewServer(sys, WithPprof()))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof-enabled server status = %d, body %.60q", resp.StatusCode, body)
	}
}

// TestBackendBlockOverREST round-trips the "backend" spec block: deploy an nn
// tier over the wire, serve a query through the real networks, watch the
// executor observability land on /stats, and PUT back to the sim default.
func TestBackendBlockOverREST(t *testing.T) {
	c, _ := newTestServer(t)
	infID := trainAndDeploy(t, c, InferenceRequest{
		Backend: &rafiki.BackendSpec{Type: rafiki.BackendNN},
	})

	desc, err := c.DescribeInference(infID)
	if err != nil {
		t.Fatal(err)
	}
	if bs := desc.Spec.Backend; bs == nil || bs.Type != rafiki.BackendNN {
		t.Fatalf("described spec lost the backend block: %+v", desc.Spec)
	}
	if desc.Status.Backend != "nn" {
		t.Fatalf("status backend = %q, want nn", desc.Status.Backend)
	}

	res, err := c.Query(infID, "rest_backend_ramen.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if res.Label == "" || len(res.Votes) == 0 {
		t.Fatalf("nn-served query = %+v", res)
	}
	st, err := c.InferenceStats(infID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend != "nn" {
		t.Fatalf("stats backend = %q, want nn", st.Backend)
	}
	if len(st.ExecWorkers) == 0 || len(st.ModelLatencyEWMA) == 0 {
		t.Fatalf("stats missing executor observability: workers=%v ewma=%v", st.ExecWorkers, st.ModelLatencyEWMA)
	}

	// A PUT without the block reverts to the sim tier.
	put, err := c.Reconcile(infID, InferenceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if put.Status.Backend != "sim" {
		t.Fatalf("post-PUT backend = %q, want sim", put.Status.Backend)
	}
	if _, err := c.Query(infID, "rest_backend_ramen.jpg"); err != nil {
		t.Fatal(err)
	}

	// A bad backend block is a 400 at validation, touching nothing.
	if _, err := c.Reconcile(infID, InferenceRequest{
		Backend: &rafiki.BackendSpec{Type: rafiki.BackendHTTP},
	}); err == nil || !strings.Contains(err.Error(), "needs a url") {
		t.Fatalf("bad backend block err = %v", err)
	}
	if d, err := c.DescribeInference(infID); err != nil || d.Status.Backend != "sim" {
		t.Fatalf("failed PUT moved the backend: %v %+v", err, d.Status)
	}
}

// TestJournalEndpointsOverREST drives the durable-control-plane surface: a
// journaled server exposes its mutation ledger over /api/v1/journal, verify
// reports an intact chain, and /stats carries the journal block; a server
// booted without a journal answers 404 on the journal routes and omits the
// stats block.
func TestJournalEndpointsOverREST(t *testing.T) {
	sys, err := rafiki.New(
		rafiki.Options{Seed: 7, Workers: 2, NodeCapacity: 16, ServeSpeedup: 50},
		rafiki.WithJournal(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	ts := httptest.NewServer(NewServer(sys))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	if _, err := c.ImportImages("food", map[string]int{"pizza": 30, "ramen": 30}); err != nil {
		t.Fatal(err)
	}

	getJSON := func(path string, v any) int {
		t.Helper()
		resp, err := c.HTTP.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	var recs []map[string]any
	if code := getJSON("/api/v1/journal", &recs); code != 200 {
		t.Fatalf("journal status = %d", code)
	}
	if len(recs) != 1 || recs[0]["kind"] != "dataset_import" {
		t.Fatalf("journal records = %+v", recs)
	}
	var tail []map[string]any
	if code := getJSON("/api/v1/journal?since=1", &tail); code != 200 || len(tail) != 0 {
		t.Fatalf("journal since=1 = %d %+v", len(tail), tail)
	}
	if code := getJSON("/api/v1/journal?since=bogus", nil); code != 400 {
		t.Fatalf("journal since=bogus status = %d, want 400", code)
	}

	var ver struct {
		ChainOK bool   `json:"chain_ok"`
		Records uint64 `json:"records"`
	}
	if code := getJSON("/api/v1/journal/verify", &ver); code != 200 || !ver.ChainOK || ver.Records != 1 {
		t.Fatalf("verify = %+v", ver)
	}

	var stats struct {
		Datasets int `json:"datasets"`
		Journal  *struct {
			Records    uint64  `json:"records"`
			Bytes      int64   `json:"bytes"`
			LastSeq    uint64  `json:"last_seq"`
			ChainOK    bool    `json:"chain_ok"`
			FsyncP99Ms float64 `json:"fsync_p99_ms"`
		} `json:"journal"`
	}
	if code := getJSON("/api/v1/stats", &stats); code != 200 {
		t.Fatalf("stats status = %d", code)
	}
	if stats.Datasets != 1 || stats.Journal == nil {
		t.Fatalf("stats = %+v", stats)
	}
	if !stats.Journal.ChainOK || stats.Journal.LastSeq != 1 || stats.Journal.Bytes == 0 {
		t.Fatalf("stats journal block = %+v", stats.Journal)
	}

	// A server without a journal: the routes answer 404 and stats omits the
	// block.
	c2, ts2 := newTestServer(t)
	for _, path := range []string{"/api/v1/journal", "/api/v1/journal/verify"} {
		resp, err := c2.HTTP.Get(ts2.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("%s without a journal = %d, want 404", path, resp.StatusCode)
		}
	}
	var bare struct {
		Journal *struct{} `json:"journal"`
	}
	resp, err := c2.HTTP.Get(ts2.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&bare); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || bare.Journal != nil {
		t.Fatalf("journal-less stats = %d %+v", resp.StatusCode, bare.Journal)
	}
}

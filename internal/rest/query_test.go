package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rafiki"
)

// deployCachedFood trains a fixed 3-model food ensemble — one tuning worker,
// so the deployed accuracies (the vote's tie-break weights) are deterministic —
// and deploys it with a prediction cache that admits a key on its second
// touch: the first query of a payload is a cold miss, the second the hot
// singleflight leader, the third a hit.
func deployCachedFood(t testing.TB) (*rafiki.System, string) {
	t.Helper()
	sys, err := rafiki.New(rafiki.Options{Seed: 42, Workers: 1, NodeCapacity: 16, ServeSpeedup: 400})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	d, err := sys.ImportImages("food", map[string]int{"pizza": 50, "ramen": 50, "salad": 50})
	if err != nil {
		t.Fatal(err)
	}
	job, err := sys.Train(rafiki.TrainConfig{
		Name: "golden", Data: d.Name, Task: rafiki.ImageClassification,
		Hyper:  rafiki.HyperConf{MaxTrials: 6, CoStudy: true},
		Models: []string{"inception_v3", "inception_v4", "inception_resnet_v2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	models, err := sys.GetModels(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := sys.Deploy(rafiki.DeploymentSpec{
		Models: models,
		Cache:  &rafiki.CacheSpec{Enabled: true, AdmitThreshold: 1.5, TTLSeconds: 600, HalfLifeSeconds: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, inf.ID
}

// queryGoldenCases are the POST /api/v1/query requests pinned in
// testdata/rest_query_golden.txt, in order: one key walked through cold miss,
// hot leader and hit; a hit on a key primed through System.Query; bodies the
// request scanner leaves to json.Decoder (an escape, non-ASCII, another key's
// case, trailing data); and the error answers. ghost targets an unknown
// deployment.
var queryGoldenCases = []struct {
	name, body string
	ghost      bool
}{
	{"cold", `{"img":"golden_pizza.jpg"}`, false},
	{"leader", `{"img":"golden_pizza.jpg"}`, false},
	{"hit", `{"img":"golden_pizza.jpg"}`, false},
	{"primed-hit", `{"img":"golden_primed_ramen.jpg"}`, false},
	{"spaced", " {\n\t\"img\" : \"golden spaced <salad> & co.jpg\"\r\n} ", false},
	{"escape", `{"img":"golden_` + `\` + `u0072amen.jpg"}`, false}, // a \u escape of 'r'
	{"non-ascii", `{"img":"golden_café_salad.jpg"}`, false},
	{"key-case", `{"IMG":"golden_upper.jpg"}`, false},
	{"trailing", `{"img":"golden_trailing.jpg"} {"img":"ignored"}`, false},
	{"empty-img", `{"img":""}`, false},
	{"blank-img", `{"img":"   "}`, false},
	{"no-img", `{}`, false},
	{"malformed", `{"img":`, false},
	{"not-object", `["golden.jpg"]`, false},
	{"empty-body", ``, false},
	{"unknown-deployment", `{"img":"golden_pizza.jpg"}`, true},
}

// TestQueryGoldenBytes pins POST /api/v1/query's exact responses — status,
// Content-Type and body bytes — to testdata/rest_query_golden.txt, recorded
// while the handler still decoded every body and encoded every answer through
// encoding/json.
func TestQueryGoldenBytes(t *testing.T) {
	sys, id := deployCachedFood(t)
	for i := 0; i < 2; i++ {
		if _, err := sys.Query(id, []byte("golden_primed_ramen.jpg")); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(sys)
	lines := make([]string, len(queryGoldenCases))
	for i, tc := range queryGoldenCases {
		target := id
		if tc.ghost {
			target = "ghost"
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query/"+target, strings.NewReader(tc.body)))
		lines[i] = tc.name + " " + strconv.Itoa(rec.Code) + " " + strconv.Quote(rec.Header().Get("Content-Type")) + " " + strconv.Quote(rec.Body.String())
	}
	job, err := sys.InferenceJobByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Stats().Cache; st.Hits != 2 || st.Admissions != 2 {
		t.Fatalf("cache stats = %+v, want the two hits and two admissions the cases walk through", st)
	}
	raw, err := os.ReadFile("../../testdata/rest_query_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d cases, want %d", len(want), len(lines))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("case %d = %s\n golden %s", i, lines[i], want[i])
		}
	}
}

// FuzzQueryBody: the request scanner never accepts a body json.Decoder would
// reject or read differently — whenever scanQuery accepts, the decoder
// accepts too, with the same img.
func FuzzQueryBody(f *testing.F) {
	for _, tc := range queryGoldenCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		img, ok := scanQuery(body)
		if !ok {
			return
		}
		var req QueryRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("scanner accepted %q, decoder rejects it: %v", body, err)
		}
		if req.Image != string(img) {
			t.Fatalf("body %q: scanner img %q, decoder img %q", body, img, req.Image)
		}
	})
}

// TestQueryBodyTooLarge413: a query body past maxBody answers 413 with
// the usual error object, whether its length is declared or chunked, and
// the deployment goes on serving normal queries.
func TestQueryBodyTooLarge413(t *testing.T) {
	sys, id := deployCachedFood(t)
	srv := NewServer(sys)
	huge := `{"img":"` + strings.Repeat("a", maxBody) + `"}`
	for _, chunked := range []bool{false, true} {
		var body io.Reader = strings.NewReader(huge)
		if chunked {
			body = io.MultiReader(body) // hides the length
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query/"+id, body))
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(e.Error, "too large") {
			t.Fatalf("chunked=%v: oversized body = %d %q, want 413 with an error object", chunked, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query/"+id, strings.NewReader(`{"img":"after_413_pizza.jpg"}`)))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"label":"pizza"`) {
		t.Fatalf("query after a 413 = %d %q", rec.Code, rec.Body.String())
	}
}

// TestJSONBodiesTooLarge413: every other route that decodes a JSON body reads
// it through the same maxBody bound — an oversized body answers 413 with the
// usual error object — and the route then serves a normal request.
func TestJSONBodiesTooLarge413(t *testing.T) {
	sys, id := deployCachedFood(t)
	trainID := sys.ListTrainJobs()[0].JobID
	srv := NewServer(sys)
	huge := `{"x":"` + strings.Repeat("a", maxBody) + `"}`
	routes := []struct {
		name, method, path, body string
		want                     int
	}{
		{"import", http.MethodPost, "/api/v1/datasets", `{"name":"after","folders":{"a":10,"b":10}}`, http.StatusCreated},
		{"train", http.MethodPost, "/api/v1/train", `{"name":"after","data":"food","task":"ImageClassification","hyper":{"MaxTrials":2}}`, http.StatusAccepted},
		{"deploy", http.MethodPost, "/api/v1/inference", `{"train_job_id":"` + trainID + `"}`, http.StatusCreated},
		{"reconcile", http.MethodPut, "/api/v1/inference/" + id, `{}`, http.StatusOK},
		{"scale", http.MethodPost, "/api/v1/inference/" + id + "/scale", `{"replicas":2}`, http.StatusOK},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, strings.NewReader(huge)))
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(e.Error, "too large") {
				t.Fatalf("oversized body = %d %q, want 413 with an error object", rec.Code, rec.Body.String())
			}
			rec = httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, strings.NewReader(rt.body)))
			if rec.Code != rt.want {
				t.Fatalf("normal body after a 413 = %d %q, want %d", rec.Code, rec.Body.String(), rt.want)
			}
		})
	}
}

// TestConcurrentQueriesThroughPooledBuffers (run it under -race): concurrent
// REST queries mixing hot and cold payloads of many lengths share the pooled
// read buffers, and every answer is byte-equal to its own payload's answer
// from a cacheless deployment of the same models. Afterwards every pooled
// buffer within reach is scribbled over and each hot payload must still hit:
// no stored entry kept a pooled buffer as its input.
func TestConcurrentQueriesThroughPooledBuffers(t *testing.T) {
	sys, id := deployCachedFood(t)
	job, err := sys.InferenceJobByID(id)
	if err != nil {
		t.Fatal(err)
	}
	refSpec := job.Spec()
	refSpec.Cache = nil
	ref, err := sys.Deploy(refSpec)
	if err != nil {
		t.Fatal(err)
	}
	var hot, cold []string
	for i := 0; i < 6; i++ {
		hot = append(hot, fmt.Sprintf("hot_%d_%s.jpg", i, strings.Repeat("h", 37*i*i)))
	}
	for i := 0; i < 40; i++ {
		cold = append(cold, fmt.Sprintf("cold_%d_%s", i, strings.Repeat(string(rune('a'+i%26)), i*i*97%4000)))
	}
	want := map[string][]byte{}
	for _, p := range append(append([]string(nil), hot...), cold...) {
		if want[p], err = sys.QueryJSON(ref.ID, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}

	srv := NewServer(sys)
	const callers, perCaller = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				p := hot[(c+i)%len(hot)]
				if i%4 == 0 {
					p = cold[(5*c+i)%len(cold)]
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query/"+id, strings.NewReader(`{"img":"`+p+`"}`)))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[p]) {
					t.Errorf("payload %.20q… answered %d %q, want %q", p, rec.Code, rec.Body.String(), want[p])
					return
				}
			}
		}(c)
	}
	wg.Wait()

	for i := 0; i < 4*callers; i++ {
		buf := scanBufs.Get().(*[scanBufSize]byte)
		for j := range buf {
			buf[j] = 0xff
		}
		defer scanBufs.Put(buf)
	}
	before := job.Stats().Cache
	for _, p := range hot {
		if _, err := sys.Query(id, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if after := job.Stats().Cache; after.Hits != before.Hits+uint64(len(hot)) || after.Admissions != before.Admissions {
		t.Fatalf("hot payloads after scribbling the pool: stats %+v → %+v, want %d more hits", before, after, len(hot))
	}
}

// TestRESTAndSDKTrafficAgree: the same query sequence sent to two identical
// deployments, one through REST and one through System.Query, leaves equal
// query counters and equal cache statistics.
func TestRESTAndSDKTrafficAgree(t *testing.T) {
	sys, viaREST := deployCachedFood(t)
	job, err := sys.InferenceJobByID(viaREST)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := sys.Deploy(job.Spec())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys)
	for i, p := range []string{"a_pizza", "b_ramen", "a_pizza", "a_pizza", "c_salad", "b_ramen", "b_ramen", "a_pizza", "d"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query/"+viaREST, strings.NewReader(`{"img":"`+p+`"}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("REST query %d = %d %q", i, rec.Code, rec.Body.String())
		}
		if _, err := sys.Query(twin.ID, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := job.Stats(), twin.Stats()
	if a.Queries != b.Queries || *a.Cache != *b.Cache {
		t.Fatalf("REST: %d queries, cache %+v\nSDK:  %d queries, cache %+v", a.Queries, *a.Cache, b.Queries, *b.Cache)
	}
}

// TestBackoffStatsOverREST: the runtime's live back-off δ and its late-batch
// count reach GET /api/v1/inference/{id}/stats under their JSON names, and the
// REST client decodes the same values System's Stats reports.
func TestBackoffStatsOverREST(t *testing.T) {
	sys, id := deployCachedFood(t)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := sys.Query(id, []byte(fmt.Sprintf("backoff_%d_pizza.jpg", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	ts := httptest.NewServer(NewServer(sys))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/v1/inference/" + id + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	err = json.NewDecoder(resp.Body).Decode(&raw)
	_ = resp.Body.Close() // read to the end; nothing left to fail
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"backoff_delta", "late_batches"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("stats JSON has no %q: %v", key, raw)
		}
	}
	got, err := NewClient(ts.URL).InferenceStats(id)
	if err != nil {
		t.Fatal(err)
	}
	job, err := sys.InferenceJobByID(id)
	if err != nil {
		t.Fatal(err)
	}
	want := job.Stats()
	if got.BackoffDelta != want.BackoffDelta || got.LateBatches != want.LateBatches {
		t.Fatalf("REST δ %v, %d late; SDK δ %v, %d late", got.BackoffDelta, got.LateBatches, want.BackoffDelta, want.LateBatches)
	}
	tau := job.Spec().SLO
	if want.BackoffDelta < 0.1*tau || want.BackoffDelta > 0.4*tau || want.LateBatches > uint64(want.Dispatches) {
		t.Fatalf("δ %v outside [0.1τ, 0.4τ] of τ %v, or %d late of %d batches", want.BackoffDelta, tau, want.LateBatches, want.Dispatches)
	}
}

// reusedQuery returns a function that serves one POST /api/v1/query/{id} with
// body to srv, reusing one request and one recorder, so what it allocates is
// the mux's and the handler's own.
func reusedQuery(srv http.Handler, id string, body []byte) (func(), *httptest.ResponseRecorder) {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/query/"+id, rd)
	rec := httptest.NewRecorder()
	return func() {
		rd.Reset(body)
		rec.Body.Reset()
		srv.ServeHTTP(rec, req)
	}, rec
}

// TestQueryHitAllocs bounds a REST cache hit: stored bytes written straight
// out, nothing decoded, encoded, cloned or copied — at most 2 allocations,
// routing included.
func TestQueryHitAllocs(t *testing.T) {
	sys, id := deployCachedFood(t)
	for i := 0; i < 3; i++ { // cold, leader, then resident
		if _, err := sys.Query(id, []byte("allocs_pizza.jpg")); err != nil {
			t.Fatal(err)
		}
	}
	want, err := sys.QueryJSON(id, []byte("allocs_pizza.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	serve, rec := reusedQuery(NewServer(sys), id, []byte(`{"img":"allocs_pizza.jpg"}`))
	allocs := testing.AllocsPerRun(200, serve)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("hit answered %d %q, want %q", rec.Code, rec.Body.String(), want)
	}
	if allocs > 2 {
		t.Fatalf("REST cache hit: %.1f allocations, want at most 2", allocs)
	}
}

// BenchmarkQueryHit measures a REST cache hit in the handler alone (reused
// httptest recorder) and over a loopback keep-alive connection (client and
// server both counted).
func BenchmarkQueryHit(b *testing.B) {
	sys, id := deployCachedFood(b)
	for i := 0; i < 3; i++ {
		if _, err := sys.Query(id, []byte("bench_pizza.jpg")); err != nil {
			b.Fatal(err)
		}
	}
	srv := NewServer(sys)
	body := []byte(`{"img":"bench_pizza.jpg"}`)
	b.Run("handler", func(b *testing.B) {
		serve, rec := reusedQuery(srv, id, body)
		b.ReportAllocs()
		for b.Loop() {
			serve()
		}
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	})
	b.Run("loopback", func(b *testing.B) {
		ts := httptest.NewServer(srv)
		defer ts.Close()
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		defer client.CloseIdleConnections()
		url := ts.URL + "/api/v1/query/" + id
		b.ReportAllocs()
		for b.Loop() {
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}
